#!/usr/bin/env python3
"""Dissect one MFT record: header, fixup, attributes, data runs.

Builds an NTFS volume, locates the record of a non-resident file and
prints every structure the recovery path relies on, at the offsets
where it actually lives.
"""

import struct
import tempfile
from pathlib import Path

from remnant import forge
from remnant.ntfs import (
    ATTR_DATA,
    ATTR_FILE_NAME,
    ATTR_STANDARD_INFORMATION,
    RECORD_FLAG_IN_USE,
    decode_data_runs,
    filetime_to_iso,
    parse_file_name,
    parse_standard_info,
    scan_mft,
)
from remnant.volume import detect_filesystem, open_image

MiB = 1024 * 1024
ATTR_NAMES = {
    ATTR_STANDARD_INFORMATION: "$STANDARD_INFORMATION",
    ATTR_FILE_NAME: "$FILE_NAME",
    ATTR_DATA: "$DATA",
}
SUBJECT = "MOVIE.MKV"   # non-resident: big enough to need real clusters


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        img_path = Path(tmp) / "demo.img"
        spec = forge.standard_corpus("ntfs", total_size=32 * MiB)
        forge.build_image(spec, img_path)

        with open_image(img_path) as img:
            desc = detect_filesystem(img)
            print("NTFS volume, %d-byte records, MFT at LCN %d"
                  % (desc.mft_record_size, desc.mft_lcn))

            for record in scan_mft(img, desc):
                name = next((parse_file_name(a.value).name
                             for a in record.attributes
                             if a.type_code == ATTR_FILE_NAME and a.value), "")
                if name == SUBJECT:
                    break
            else:
                raise SystemExit("subject record not found")

            # The header words the reader checks but does not keep; the
            # fixup touches only the stride tails, so they read as stored.
            raw = img.read_at(record.offset, desc.mft_record_size)
            usa_count, = struct.unpack_from("<H", raw, 0x06)
            sequence, = struct.unpack_from("<H", raw, 0x10)
            first_attr, _, used, allocated = struct.unpack_from("<HHII",
                                                                raw, 0x14)
            print("\nrecord %d at volume offset %#x" % (record.index,
                                                        record.offset))
            print("  signature FILE, seq %d, flags %#06x (%s)"
                  % (sequence, record.flags,
                     "in use" if record.flags & RECORD_FLAG_IN_USE
                     else "deleted"))
            print("  fixup: %d update-sequence slots verified and patched"
                  % (usa_count - 1))
            print("  attributes start at %#x, record used %d of %d bytes"
                  % (first_attr, used, allocated))

            print("\nattribute walk:")
            for a in record.attributes:
                label = ATTR_NAMES.get(a.type_code, "type %#x" % a.type_code)
                if a.resident:
                    print("  %-24s resident, %d-byte value"
                          % (label, len(a.value or b"")))
                else:
                    print("  %-24s non-resident, %d bytes in %d run bytes"
                          % (label, a.real_size, len(a.run_bytes)))
                if a.type_code == ATTR_STANDARD_INFORMATION and a.value:
                    si = parse_standard_info(a.value)
                    print("      created %s  modified %s"
                          % (filetime_to_iso(si.created),
                             filetime_to_iso(si.modified)))
                if a.type_code == ATTR_FILE_NAME and a.value:
                    fn = parse_file_name(a.value)
                    print("      name %r, parent record %d"
                          % (fn.name, fn.parent_index))
                if a.type_code == ATTR_DATA and not a.resident:
                    for first, count in decode_data_runs(a.run_bytes):
                        kind = "sparse" if first is None else "LCN %d" % first
                        print("      run: %d clusters at %s" % (count, kind))

            data = next(a for a in record.attributes if a.is_unnamed_data)
            total = sum(count for _, count in
                        decode_data_runs(data.run_bytes))
            print("\n%s occupies %d clusters for %d real bytes; deleting the"
                  % (SUBJECT, total, data.real_size))
            print("file clears one flag bit in the header — every structure "
                  "above survives.")


if __name__ == "__main__":
    main()
