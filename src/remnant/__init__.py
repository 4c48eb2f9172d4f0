"""remnant — deleted-data recovery and sanitization auditing for FAT and
NTFS volume images, plus a NAND flash-translation-layer simulator for
studying why "deleted" so rarely means "gone".

The CLI (``remnant scan/recover/audit/forge/simulate``) is a thin layer
over these modules:

- :mod:`remnant.volume` — image access and filesystem detection
- :mod:`remnant.fat` / :mod:`remnant.ntfs` — per-filesystem metadata
  parsing and single-file recovery
- :mod:`remnant.undelete` — the filesystem-neutral pipeline
- :mod:`remnant.forge` — ground-truth sidecars and the sanitization
  audit; it loads :mod:`remnant.forge_write`, the corpus image writer and
  the deletion mutations, on first use of the writer's names
- :mod:`remnant.ftl` — flash remanence simulation
- :mod:`remnant.report` — the one report shape both output forms share
"""

__version__ = "0.1.0"
