#!/usr/bin/env python3
"""Check repo docs for dead intra-repo links and stale binary references.

Usage: python3 tools/check_links.py [FILE.md ...]

With no arguments, checks the default doc set (README, DESIGN,
EXPERIMENTS, ROADMAP, results/README.md, docs/*.md). Two classes of
failure:

* A markdown link ``[text](path)`` whose target is a relative path that
  does not exist (external http(s)/mailto links and pure ``#anchor``
  links are skipped; an in-repo target's ``#fragment`` is ignored).
* A ``--bin NAME`` reference to a harness binary that has no
  ``crates/bench/src/bin/NAME.rs`` — i.e. docs still advertising a
  deleted or renamed binary.

Exits non-zero listing every offence, so CI fails on doc rot.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "results/README.md",
    *sorted(
        os.path.relpath(p, REPO) for p in glob.glob(os.path.join(REPO, "docs", "*.md"))
    ),
]

# [text](target) — excluding images' extra bang is fine: same syntax.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BIN_REF = re.compile(r"--bin[ =]([A-Za-z0-9_\-]+)")


def check_file(relpath):
    errors = []
    path = os.path.join(REPO, relpath)
    if not os.path.exists(path):
        return [f"{relpath}: file itself is missing"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()

    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence

        for target in LINK.findall(line):
            if in_fence:
                continue
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:  # pure anchor
                continue
            # Relative to the linking file, like a rendered page resolves it.
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                errors.append(f"{relpath}:{lineno}: dead link -> {target}")

        for name in BIN_REF.findall(line):
            src = os.path.join(REPO, "crates", "bench", "src", "bin", f"{name}.rs")
            if not os.path.exists(src):
                errors.append(f"{relpath}:{lineno}: no such binary -> --bin {name}")

    return errors


def main():
    docs = sys.argv[1:] or DEFAULT_DOCS
    errors = []
    for doc in docs:
        errors.extend(check_file(doc))
    for e in errors:
        print(e)
    if errors:
        print(f"\n{len(errors)} dead reference(s) across {len(docs)} file(s)")
        return 1
    print(f"checked {len(docs)} file(s): all intra-repo links and --bin references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
