#!/usr/bin/env python3
"""Line-coverage gate for src/: every unexecuted line must be allowlisted.

Build with gcov instrumentation, run the tests and the quick sweep suite,
then run this script from the root of the source checkout:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic"
    cmake --build build-cov -j
    ctest --test-dir build-cov -j4
    (cd build-cov && ./bench/bench_suite --quick --workers=2)
    python3 scripts/coverage_gate.py --build build-cov

It runs gcov over the library's .gcda files and lists every line of a
src/*.cc file that gcov's text report marks unexecuted ("#####"), with the
function gcov's JSON report (--json-format) attributes it to; template
instantiations and inlined copies are merged. A line passes when
the allowlist (scripts/coverage_allowlist.txt) has an entry with its file,
its enclosing function and its source text, trimmed of surrounding
whitespace. The function is gcov's demangled name reduced to its qualified
name: no return type, template arguments or parameters, and a lambda
counts as the function it is written in. One entry covers the unexecuted
lines of that function with that text. Line numbers are not part of the
key, so edits elsewhere in a file do not invalidate the list.

Exit 1 if an unexecuted line is missing from the allowlist (each is
printed as file:line: function: text), or if an allowlist entry is stale:
no line that gcov reports, run or not, has its file, function and text
(the code was deleted, rewritten or moved to another function).
Allowlisted entries whose lines all ran are printed so the list can
shrink, but do not fail the gate. --print-unexecuted prints every
unexecuted line as an allowlist entry instead of checking. Exit 2 on usage
errors: a malformed allowlist line, or no coverage data under the build
directory.
"""

import argparse
import functools
import glob
import gzip
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ALLOWLIST = os.path.join(ROOT, "scripts", "coverage_allowlist.txt")


def fail_usage(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def read_allowlist(path):
    """Returns {(file, function, text)} from lines `src/x.cc: function: text`.

    # starts a comment."""
    entries = set()
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split(": ", 2)
            if len(parts) != 3 or not parts[0].startswith("src/"):
                fail_usage(f"{path}:{number}: expected "
                           "'src/<file>.cc: <function>: <text>'")
            entries.add((parts[0], parts[1], parts[2].strip()))
    return entries


def function_key(demangled):
    """Reduces a demangled name to its qualified name, e.g.

    `void ns::C::Apply<...>(int)::{lambda()#1}::operator()() const` and
    `ns::C::Apply(int)` both to `ns::C::Apply`."""
    anonymous = "(anonymous namespace)"
    out = []
    depth = 0
    i = 0
    while i < len(demangled):
        c = demangled[i]
        if demangled.startswith(anonymous, i):
            if depth == 0:
                out.append(anonymous)
            i += len(anonymous)
            continue
        if (depth == 0 and demangled.startswith("operator", i) and
                not (out and (out[-1].isalnum() or out[-1] == "_"))):
            # An operator's name may hold <, > or (): copy it whole.
            end = i + len("operator")
            if demangled.startswith("()", end):
                end += 2
            while end < len(demangled) and demangled[end] != "(":
                end += 1
            out.append(demangled[i:end])
            i = end
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == "(":
            break
        elif depth == 0 and c == "[":
            # An ABI tag, [abi:cxx11].
            i = demangled.index("]", i)
        elif depth == 0 and c == " ":
            out = []  # what came before was the return type
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def gcov_lines(build_dir):
    """Returns {(file, line number): (unexecuted, function)} for the lines
    of src/*.cc files that gcov reports.

    `unexecuted` is gcov's text-report mark `#####`: no run executed the
    line, which has a block outside exception handling (a line whose only
    code is an exception cleanup, `=====`, counts as executed). `function`
    comes from the JSON report: the first in sorted order of the keys of
    the functions the line belongs to that left it unexecuted, or of all
    of them."""
    objects = os.path.join(build_dir, "src", "CMakeFiles", "hermes.dir")
    gcda = sorted(glob.glob(os.path.join(objects, "**", "*.gcda"),
                            recursive=True))
    if not gcda:
        fail_usage(f"no .gcda files under {objects}: build with --coverage "
                   "and run the tests first")
    gcda = [os.path.abspath(g) for g in gcda]
    unexecuted = set()
    counts = defaultdict(list)  # (file, line) -> [(count, function)]
    with tempfile.TemporaryDirectory() as out:
        for flags in (["-p"], ["-p", "--json-format"]):
            subprocess.run(["gcov", *flags, *gcda], cwd=out,
                           stdout=subprocess.DEVNULL, check=True)
        for report in glob.glob(os.path.join(out, "*#src#*.cc.gcov")):
            name = "src/" + os.path.basename(report)[:-len(".gcov")].rsplit(
                "#src#", 1)[1].replace("#", "/")
            with open(report, encoding="utf-8", errors="replace") as f:
                for row in f:
                    count, _, rest = row.partition(":")
                    if count.strip() == "#####":
                        unexecuted.add((name, int(rest.partition(":")[0])))
        for report in glob.glob(os.path.join(out, "*.gcov.json.gz")):
            with gzip.open(report, "rt", encoding="utf-8") as f:
                data = json.load(f)
            cwd = data.get("current_working_directory", "")
            for entry in data["files"]:
                name = os.path.relpath(os.path.join(cwd, entry["file"]), ROOT)
                if not (name.startswith("src/") and name.endswith(".cc")):
                    continue
                demangled = {fn["name"]: fn["demangled_name"]
                             for fn in entry["functions"]}
                for line in entry["lines"]:
                    fn = line.get("function_name")
                    counts[(name, line["line_number"])].append(
                        (line["count"],
                         function_key(demangled.get(fn, fn)) if fn else ""))
    lines = {}
    for key, entries in counts.items():
        idle = sorted(fn for count, fn in entries if count == 0)
        lines[key] = (key in unexecuted,
                      idle[0] if idle else sorted(fn for _, fn in entries)[0])
    for key in unexecuted - lines.keys():
        lines[key] = (True, "")
    return lines


@functools.lru_cache(maxsize=None)
def source_lines(name):
    with open(os.path.join(ROOT, name), encoding="utf-8",
              errors="replace") as f:
        return f.read().splitlines()


def source_text(name, number):
    """The trimmed text of line `number` of src file `name`."""
    lines = source_lines(name)
    return lines[number - 1].strip() if number <= len(lines) else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True,
                        help="build directory of the --coverage build")
    parser.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    parser.add_argument("--print-unexecuted", action="store_true",
                        help="print every unexecuted line as an allowlist "
                        "entry and exit")
    args = parser.parse_args()

    lines = gcov_lines(args.build)
    reported = set()
    unexecuted = []
    for (name, number), (idle, function) in sorted(lines.items()):
        key = (name, function, source_text(name, number))
        reported.add(key)
        if idle:
            unexecuted.append((number, key))
    if args.print_unexecuted:
        for _, key in unexecuted:
            print(": ".join(key))
        return 0

    allowed = read_allowlist(args.allowlist)
    used = set()
    missing = []
    for number, key in unexecuted:
        if key in allowed:
            used.add(key)
        else:
            name, function, text = key
            missing.append(f"{name}:{number}: {function}: {text}")

    stale = sorted(allowed - reported)
    for key in sorted(allowed - used - set(stale)):
        print("now executed, remove from the allowlist: " + ": ".join(key))
    print(f"{len(unexecuted)} unexecuted src/*.cc lines, "
          f"{len(unexecuted) - len(missing)} allowlisted, {len(missing)} "
          f"not; {len(stale)} stale allowlist entries")
    for line in missing:
        print(f"unexecuted and not allowlisted: {line}")
    for key in stale:
        print("stale allowlist entry, no such line: " + ": ".join(key))
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
