#!/usr/bin/env python3
"""Walk through one FAT undelete, from directory slot to recovered bytes.

Forges a small FAT16 volume, deletes a single file the way an OS does
(mark the slot, zero the chain, leave the payload), then shows each
forensic step: the surviving slot, the chain hypothesis, and the
byte-for-byte comparison against the original.
"""

import hashlib
import io
import tempfile
from pathlib import Path

from remnant import forge
from remnant.fat import find_deleted, load_fat, survey
from remnant.volume import detect_filesystem, open_image

MiB = 1024 * 1024
VICTIM = "DATA/REPORT.PDF"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        img_path = Path(tmp) / "demo.img"
        truth_path = str(img_path) + ".truth.json"
        spec = forge.standard_corpus("fat16", total_size=8 * MiB)
        forge.build_image(spec, img_path, truth_path=truth_path)
        truth = forge.GroundTruth.load(truth_path)

        original = truth.files[VICTIM]
        print("forged %s: %d files, victim %s (%d bytes, sha256 %s...)"
              % (img_path.name, len(truth.files), VICTIM,
                 original.size, original.sha256[:12]))

        forge.apply_mutation(img_path, "delete", truth=truth, target=VICTIM)
        print("deleted %s: slot marker set, FAT chain zeroed, payload "
              "clusters untouched" % VICTIM)

        with open_image(img_path) as img:
            desc = detect_filesystem(img)
            print("\ndetected %s, cluster size %d, %d clusters"
                  % (desc.kind.value, desc.cluster_size, desc.cluster_count))

            surv = survey(img, desc)
            entry = next(e for e in find_deleted(surv, desc)
                         if e.size == original.size)
            print("deleted slot found in %s:" % (entry.path or "/"))
            print("  stored name   %-14s (first byte lost to the marker)"
                  % entry.short_name)
            print("  display name  %s" % entry.name)
            print("  size          %d bytes" % entry.size)
            print("  first cluster %d" % entry.first_cluster)

            fat = load_fat(img, desc)
            print("\nchain hypothesis (forward walk over free clusters):")
            print("  runs          %s  ([first cluster, count])"
                  % entry.chain)
            print("  confidence    %s  flags %s"
                  % (entry.confidence, entry.flags or "[]"))
            held = sum(count for _, count in entry.chain)
            free = sum(1 for first, count in entry.chain
                       for c in range(first, first + count) if fat.is_free(c))
            print("  %d/%d clusters still marked free in the FAT"
                  % (free, held))

            from remnant.fat import recover_file
            sink = io.BytesIO()
            recover_file(img, desc, entry, sink)
            got = hashlib.sha256(sink.getvalue()).hexdigest()
            print("\nrecovered %d bytes, sha256 %s..."
                  % (len(sink.getvalue()), got[:12]))
            print("byte-identical to the original: %s"
                  % ("YES" if got == original.sha256 else "NO"))


if __name__ == "__main__":
    main()
