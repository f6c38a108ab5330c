#!/usr/bin/env python3
"""Net lines of code of a change, counted from `git diff`.

    scripts/net_loc.py <base> [<head>] [-- <path>...]

Prints the lines added and removed between <base> and <head> (default: the
working tree, staged or not) per top-level directory, files at the root
counting under ".", then one line for each <path> given: a file, a
directory or a glob such as 'src/core/agent.*'. Blank lines and
comment-only lines are left out: lines that start with `//` or are one
`/* ... */` in C and C++ sources, and lines that start with `#` in Python,
CMake, shell and YAML files and in the coverage allowlist. Every other line
of every other file counts.

Example: scripts/net_loc.py HEAD~1 HEAD -- 'src/core/agent.*' src
"""

import fnmatch
import os
import subprocess
import sys
from collections import defaultdict

C_FAMILY = {".h", ".hpp", ".c", ".cc", ".cpp"}
HASH_COMMENTS = {".py", ".cmake", ".sh", ".yml", ".yaml", ".txt"}


def is_code(path, text):
    """True when `text`, a line of `path`, is neither blank nor a comment."""
    line = text.strip()
    if not line:
        return False
    ext = os.path.splitext(path)[1]
    if ext in C_FAMILY:
        return not (line.startswith("//") or
                    (line.startswith("/*") and line.endswith("*/")))
    if ext in HASH_COMMENTS or os.path.basename(path) == "CMakeLists.txt":
        return not line.startswith("#")
    return True


def diff_counts(base, head):
    """Returns {path: [added, removed]} of code lines, from `git diff`."""
    cmd = ["git", "diff", "--no-color", "--no-renames", "--no-ext-diff",
           "-U0", base]
    if head is not None:
        cmd.append(head)
    cmd.append("--")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=root).stdout
    counts = defaultdict(lambda: [0, 0])
    path, in_hunk = None, False
    for line in out.splitlines():
        if line.startswith("diff --git "):
            path, in_hunk = None, False
        elif line.startswith("@@"):
            in_hunk = True
        elif not in_hunk:
            # "--- a/<path>" and "+++ b/<path>"; /dev/null for a file that
            # is created or deleted.
            if line.startswith(("--- a/", "+++ b/")):
                path = line[6:]
        elif line[:1] in ("+", "-") and is_code(path, line[1:]):
            counts[path][0 if line[0] == "+" else 1] += 1
    return counts


def matches(path, pattern):
    """`pattern` is a path prefix (file or directory) or a glob."""
    if any(c in pattern for c in "*?["):
        return fnmatch.fnmatch(path, pattern)
    pattern = pattern.rstrip("/")
    return path == pattern or path.startswith(pattern + "/")


def row(name, added, removed, net):
    return f"{name:<32} {added:>7} {removed:>8} {net:>8}"


def main(argv):
    args, paths = argv, []
    if "--" in argv:
        split = argv.index("--")
        args, paths = argv[:split], argv[split + 1:]
    if not 1 <= len(args) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base = args[0]
    head = args[1] if len(args) == 2 else None
    try:
        counts = diff_counts(base, head)
    except subprocess.CalledProcessError as e:
        print(e.stderr.strip(), file=sys.stderr)
        return 2
    dirs = defaultdict(list)
    for path in counts:
        dirs[path.split("/", 1)[0] if "/" in path else "."].append(path)
    print(row("path", "added", "removed", "net"))

    def line(name, selected):
        added = sum(counts[p][0] for p in selected)
        removed = sum(counts[p][1] for p in selected)
        print(row(name, added, removed, f"{added - removed:+d}"))

    for top in sorted(dirs):
        line(top if top == "." else top + "/", dirs[top])
    line("total", list(counts))
    for pattern in paths:
        line(pattern, [p for p in counts if matches(p, pattern)])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
