#!/usr/bin/env python3
"""Line-coverage gate for src/: every unexecuted line must be allowlisted.

Build with gcov instrumentation, run the tests and the quick sweep suite,
then run this script from the root of the source checkout:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -j4
    (cd build-cov && ./bench/bench_suite --quick --workers=2)
    python3 scripts/coverage_gate.py --build build-cov

It runs `gcov -p` over the library's .gcda files and lists every line of a
src/*.cc file that gcov marks unexecuted ("#####"). A line passes when the
allowlist (scripts/coverage_allowlist.txt) has an entry with its file and
its source text, trimmed of surrounding whitespace; one entry covers every
unexecuted line of that file with that text. Line numbers are not part of
the key, so edits elsewhere in a file do not invalidate the list.

Exit 1 if an unexecuted line is missing from the allowlist (each is
printed as file:line: text), or if an allowlist entry is stale: its text
matches no line of its file in the current tree (the code was deleted or
rewritten). Allowlisted entries that matched no unexecuted line but
still exist now run: they are printed so the list can shrink, but do not
fail the gate. Exit 2 on usage errors: a malformed allowlist line, or no
coverage data under the build directory.
"""

import argparse
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ALLOWLIST = os.path.join(ROOT, "scripts", "coverage_allowlist.txt")


def fail_usage(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def read_allowlist(path):
    """Returns {(file, text)} from lines `src/x.cc: text`; # starts a comment."""
    entries = set()
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, text = line.partition(": ")
            if not sep or not name.startswith("src/"):
                fail_usage(f"{path}:{number}: expected 'src/<file>.cc: <text>'")
            entries.add((name, text.strip()))
    return entries


def stale_entries(entries):
    """Returns the (file, text) entries whose text is no line of their file."""
    lines = {}
    for name in {name for name, _ in entries}:
        try:
            with open(os.path.join(ROOT, name), encoding="utf-8") as f:
                lines[name] = {line.strip() for line in f}
        except FileNotFoundError:
            lines[name] = set()
    return sorted((name, text) for name, text in entries
                  if text not in lines[name])


def unexecuted_lines(build_dir):
    """Yields (file, line number, trimmed text) for every #####-line of src/*.cc."""
    objects = os.path.join(build_dir, "src", "CMakeFiles", "hermes.dir")
    gcda = sorted(glob.glob(os.path.join(objects, "**", "*.gcda"),
                            recursive=True))
    if not gcda:
        fail_usage(f"no .gcda files under {objects}: build with --coverage "
                   "and run the tests first")
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(["gcov", "-p", *[os.path.abspath(g) for g in gcda]],
                       cwd=out, stdout=subprocess.DEVNULL, check=True)
        for report in sorted(glob.glob(os.path.join(out, "*#src#*.cc.gcov"))):
            name = "src/" + os.path.basename(report)[:-len(".gcov")].rsplit(
                "#src#", 1)[1].replace("#", "/")
            with open(report, encoding="utf-8", errors="replace") as f:
                for row in f:
                    count, _, rest = row.partition(":")
                    if count.strip() != "#####":
                        continue
                    number, _, text = rest.partition(":")
                    yield name, int(number), text.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="build directory of the --coverage build")
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    args = parser.parse_args()

    allowed = read_allowlist(args.allowlist)
    used = set()
    missing = []
    total = 0
    for name, number, text in unexecuted_lines(args.build):
        total += 1
        if (name, text) in allowed:
            used.add((name, text))
        else:
            missing.append(f"{name}:{number}: {text}")

    stale = stale_entries(allowed)
    for name, text in sorted(allowed - used - set(stale)):
        print(f"now executed, remove from the allowlist: {name}: {text}")
    print(f"{total} unexecuted src/*.cc lines, {total - len(missing)} "
          f"allowlisted, {len(missing)} not; {len(stale)} stale "
          "allowlist entries")
    for line in missing:
        print(f"unexecuted and not allowlisted: {line}")
    for name, text in stale:
        print(f"stale allowlist entry, no such line: {name}: {text}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
