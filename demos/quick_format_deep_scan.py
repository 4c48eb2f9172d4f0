#!/usr/bin/env python3
"""Quick format vs. deep scan.

A quick format writes fresh filesystem metadata and nothing else.  The
shallow scan believes the new, empty metadata; the deep scan carves the
abandoned structures out of unallocated space and recovers everything.
"""

import tempfile
from pathlib import Path

from remnant import forge
from remnant.report import summarize
from remnant.undelete import recover_all, scan_volume
from remnant.volume import detect_filesystem, open_image

MiB = 1024 * 1024


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        img_path = Path(tmp) / "demo.img"
        truth_path = str(img_path) + ".truth.json"
        spec = forge.standard_corpus("fat32", total_size=64 * MiB)
        forge.build_image(spec, img_path, truth_path=truth_path)
        truth = forge.GroundTruth.load(truth_path)
        print("forged fat32 volume with %d files (%d bytes of content)"
              % (len(truth.files),
                 sum(f.size for f in truth.files.values())))

        forge.apply_mutation(img_path, "quick-format", truth=truth)
        print("quick-formatted: new boot sector and empty tables written\n")

        with open_image(img_path) as img:
            desc = detect_filesystem(img)

            shallow = scan_volume(img, desc)
            print("shallow scan: %d live files, %d deleted candidates"
                  % (len(shallow.live_rows), len(shallow.candidates)))
            print("  (the fresh metadata is empty — nothing to see)\n")

            deep = scan_volume(img, desc, deep=True)
            orphans = sum(1 for c in deep.candidates if "carved" in c.flags)
            print("deep scan:    %d deleted candidates, %d from orphaned "
                  "directories" % (len(deep.candidates), orphans))

            out = Path(tmp) / "recovered"
            recovered, errors = recover_all(img, deep, str(out))
            stats = summarize(recovered, truth.files.values())
            print("\nrecovered %d/%d files, %s%% byte-identical"
                  % (stats["totals"]["byte_identical"],
                     stats["totals"]["listed"],
                     stats["totals"]["percent"]))
            for row in stats["classes"]:
                print("  %-12s %2d/%2d  %s%%"
                      % (row["class"], row["byte_identical"],
                         row["listed"], row["percent"]))
            if errors:
                print("errors: %s" % errors)


if __name__ == "__main__":
    main()
