#!/usr/bin/env python3
"""Determinism lint for the relogic source tree (stdlib only).

The library promises byte-identical exports for identical inputs — same
seed, any thread count (DESIGN.md §7). That contract dies in small ways:
a wall-clock read feeding a report, a stray rand(), an unordered_map
iterated into JSON, a pointer value formatted into a trace. The compiler
accepts all of them, so this lint gates the patterns instead:

  wall-clock          std::chrono::{system,steady,high_resolution}_clock,
                      gettimeofday / clock_gettime / time(NULL) /
                      localtime / gmtime. Simulated time (common/time.hpp)
                      is the only clock model code may read. Built-in
                      allowance: src/obs/trace.cpp, whose steady_ns()
                      feeds ONLY the wall-arg side channel that the
                      deterministic exporter never serialises.

  rand                std::random_device, rand()/srand(), std::mt19937,
                      *_distribution. All randomness flows through the
                      seeded common/rng.hpp engine. Built-in allowance:
                      the rng implementation itself.

  unordered-iteration range-for over a container declared unordered_*
                      anywhere in the tree, inside an export path — a
                      file under obs/ or matching telemetry/json/export,
                      or a function whose name says it renders output
                      (to_json, to_string, export*, dump*, write_json,
                      render*) — or inside an event path: a file under
                      sim/, sched/ or runtime/, where the loop order can
                      become the order events are scheduled in, or under
                      area/, where it can decide which region moves.
                      Iteration order is libc++-lottery there; sort
                      first or use std::map.

  pointer-format      "%p" in a format string, or streaming (void*)/
                      static_cast<void*> — addresses differ across runs
                      by ASLR, so they can never appear in output.

An intentional exception carries the escape hatch on the same line or the
line directly above, and must say why:

    // lint-allow(wall-clock): operator wall-time report, not simulation

Usage:
  check_determinism_lint.py [ROOT ...]   scan trees (default: src/)
  check_determinism_lint.py --self-test  run against tools/lint_fixtures/

Exit status: 0 clean, 1 violations (or self-test mismatch), 2 usage.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")

# Paths (relative, forward slashes) allowed to violate one rule, with the
# reason recorded here rather than sprinkled inline.
BUILTIN_ALLOW = {
    "wall-clock": {
        # steady_ns() feeds the wall-arg side channel only; the exporter
        # orders and timestamps events from simulated time (DESIGN.md §7).
        "src/obs/trace.cpp",
    },
    "rand": {
        # The seeded engine everything else must use.
        "src/common/rng.cpp",
        "src/common/include/relogic/common/rng.hpp",
    },
}

RULES = {
    "wall-clock": re.compile(
        r"(?:std::)?chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"
        r"|\bgettimeofday\s*\("
        r"|\bclock_gettime\s*\("
        r"|\blocaltime(?:_r)?\s*\("
        r"|\bgmtime(?:_r)?\s*\("
        r"|(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    ),
    "rand": re.compile(
        r"std::random_device"
        r"|(?<![\w:.>])s?rand\s*\("
        r"|std::mt19937"
        r"|\w+_distribution\s*<"
    ),
    "pointer-format": re.compile(
        r"%p\b"
        r"|<<\s*\(\s*(?:const\s+)?void\s*\*\s*\)"
        r"|<<\s*static_cast<\s*(?:const\s+)?void\s*\*\s*>"
    ),
}

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s+(\w+)\s*[;{=]"
)
RANGE_FOR = re.compile(
    r"\bfor\s*\([^;:)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)"
)
# A function definition heading (qualified method or free function). Tracked
# per line; the most recent match names the enclosing function well enough
# for the export-path heuristic.
FUNC_DEF = re.compile(
    r"(?:^|\s)((?:~?\w+::)+~?\w+|\w+)\s*\([^;]*$|"
    r"(?:^|\s)((?:~?\w+::)+~?\w+|\w+)\s*\([^;()]*\)\s*(?:const\s*)?(?:noexcept\s*)?{"
)
EXPORT_FILE = re.compile(r"(?:^|/)obs/|telemetry|json|export")
# The discrete-event simulator, the scheduler and the fleet runtime: what
# they iterate in may become event or dispatch order. The area layer: its
# loop order breaks ties between candidate moves and packing positions.
EVENT_FILE = re.compile(r"(?:^|/)(?:sim|sched|runtime|area)/")
EXPORT_FUNC = re.compile(
    r"to_json|to_string|export|dump|render|write_json|print", re.IGNORECASE
)
ALLOW = re.compile(r"//\s*lint-allow\(([\w-]+)\)")


def strip_block_comments(lines):
    """Blanks the interior of /* */ comments, preserving line count."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                start = line.find("/*", i)
                # Ignore /* that sits inside a // comment.
                slashes = line.find("//", i)
                if start < 0 or (0 <= slashes < start):
                    result.append(line[i:])
                    break
                result.append(line[i:start])
                in_block = True
                i = start + 2
        out.append("".join(result))
    return out


def collect_unordered_names(files):
    names = set()
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for m in UNORDERED_DECL.finditer(text):
            names.add(m.group(1))
    return names


def scan_file(path, rel, unordered_names):
    """Returns a list of (rel, line_no, rule, excerpt) violations."""
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    lines = strip_block_comments(raw)

    violations = []
    allowed_next = set()   # rules allowed by a directive on the previous line
    current_func = ""
    ordered_file = bool(EXPORT_FILE.search(rel) or EVENT_FILE.search(rel))

    for no, line in enumerate(lines, start=1):
        allowed = set(allowed_next)
        allowed_next = set()
        comment = line.find("//")
        code = line if comment < 0 else line[:comment]
        for m in ALLOW.finditer(line):
            allowed.add(m.group(1))
            allowed_next.add(m.group(1))

        fm = FUNC_DEF.search(code)
        if fm:
            name = fm.group(1) or fm.group(2)
            # Control-flow keywords match the pattern shape, and a
            # std::-qualified name is always a *call* spilling onto the next
            # line (std functions are never defined here) — skip both.
            if name.startswith("std::"):
                name = ""
            if name and name not in ("if", "for", "while", "switch",
                                     "return", "sizeof", "catch", "defined"):
                current_func = name

        def hit(rule, text=code):
            if rule in allowed:
                return
            if rel in BUILTIN_ALLOW.get(rule, ()):
                return
            violations.append((rel, no, rule, text.strip()[:90]))

        for rule in ("wall-clock", "rand"):
            if RULES[rule].search(code):
                hit(rule)
        # %p lives inside string literals, so match before the // cut only.
        if RULES["pointer-format"].search(code):
            hit("pointer-format")

        rf = RANGE_FOR.search(code)
        if rf and rf.group(1) in unordered_names:
            if ordered_file or EXPORT_FUNC.search(current_func):
                hit("unordered-iteration")
    return violations


def gather(root):
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "lint_fixtures")
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                files.append(os.path.join(dirpath, name))
    return files


def run(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        else:
            files.extend(gather(root))
    unordered_names = collect_unordered_names(files)
    violations = []
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        violations.extend(scan_file(path, rel, unordered_names))
    return files, violations


# ---- self-test --------------------------------------------------------------
# The fixture files plant one violation per (file, line, rule) listed here;
# everything in clean.cpp and allowed.cpp must pass. The self-test fails on
# any difference in either direction, so a regex regression that goes blind
# OR trigger-happy turns the CI step red.
EXPECTED = {
    ("tools/lint_fixtures/planted.cpp", 9, "wall-clock"),
    ("tools/lint_fixtures/planted.cpp", 12, "wall-clock"),
    ("tools/lint_fixtures/planted.cpp", 15, "wall-clock"),
    ("tools/lint_fixtures/planted.cpp", 19, "rand"),
    ("tools/lint_fixtures/planted.cpp", 21, "rand"),
    ("tools/lint_fixtures/planted.cpp", 23, "rand"),
    ("tools/lint_fixtures/planted.cpp", 28, "pointer-format"),
    ("tools/lint_fixtures/planted.cpp", 31, "pointer-format"),
    ("tools/lint_fixtures/planted.cpp", 39, "unordered-iteration"),
    ("tools/lint_fixtures/planted_export.cpp", 10, "unordered-iteration"),
    ("tools/lint_fixtures/sim/planted_event_order.cpp", 11,
     "unordered-iteration"),
    ("tools/lint_fixtures/area/planted_move_order.cpp", 12,
     "unordered-iteration"),
}


def self_test():
    files = gather(os.path.join(REPO_ROOT, "tools", "lint_fixtures"))
    unordered_names = collect_unordered_names(files)
    got = set()
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        for v in scan_file(path, rel, unordered_names):
            got.add((v[0], v[1], v[2]))
    missing = EXPECTED - got
    surplus = got - EXPECTED
    for item in sorted(missing):
        print(f"self-test FAIL: expected violation not reported: {item}")
    for item in sorted(surplus):
        print(f"self-test FAIL: unexpected violation reported: {item}")
    if missing or surplus:
        return 1
    print(f"self-test ok: {len(EXPECTED)} planted violations caught, "
          f"clean and lint-allow fixtures quiet")
    return 0


def main(argv):
    args = argv[1:]
    if args and args[0] in ("-h", "--help"):
        sys.stderr.write(__doc__)
        return 2
    if args and args[0] == "--self-test":
        return self_test()
    roots = args or [os.path.join(REPO_ROOT, "src")]
    files, violations = run(roots)
    for rel, no, rule, excerpt in sorted(violations):
        print(f"{rel}:{no}: [{rule}] {excerpt}")
    if violations:
        print(f"FAIL: {len(violations)} determinism-lint violation(s) "
              f"in {len(files)} files")
        return 1
    rules = sorted(set(RULES) | {"unordered-iteration"})
    print(f"ok: {len(files)} files clean ({', '.join(rules)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
