#!/usr/bin/env python3
"""irbuf's repo-specific invariant linter.

Enforces rules the generic tools (clang-tidy, -Werror=thread-safety)
cannot express, because they encode project protocol rather than
language semantics. Invariants the compiler or the semantic analyzer
(tools/analyze/irbuf_analyzer.py) already owns are not repeated here:
pages are reachable only through the pinning FetchPinned, a dropped
Status fails the build through [[nodiscard]] + -Werror=unused-result
and the analyzer's unchecked-status check, and allocation inside
// LINT-HOT-LOOP regions is the analyzer's hot-alloc-ast check.

  unguarded-mutex  Mutex members in the concurrent subsystems
                   (src/serve/, src/buffer/, src/obs/) must be the
                   annotated irbuf::Mutex, and every such mutex must
                   appear in at least one IRBUF_GUARDED_BY /
                   IRBUF_PT_GUARDED_BY / IRBUF_REQUIRES contract in its
                   file. A raw std::mutex member is invisible to the
                   thread-safety analysis.
  raw-rand         All randomness must flow through util/rng.h (Pcg32).
                   rand()/srand()/std::random_device/std::mt19937 break
                   the bit-for-bit reproducibility the differential
                   tests rely on.
  raw-sleep        All waits must flow through fault::SleepUs
                   (src/fault/backoff.h). A raw sleep_for/sleep_until/
                   usleep/nanosleep is invisible to the fault layer's
                   accounting and can't be centrally capped or audited;
                   backoff.cc holds the tree's single annotated raw
                   sleep.
  raw-clock        Timing in the hot-path subsystems (src/core/,
                   src/serve/, src/buffer/, src/storage/, src/obs/)
                   must read util/monotonic_clock.h (MonotonicNowNs) or
                   record through obs/span.h. A raw steady_clock/
                   system_clock/clock_gettime call forks the timebase:
                   spans, lock waits and latency accounting stop lining
                   up in one Perfetto timeline, and wall-clock reads
                   are not monotonic across NTP steps.

Usage:
  irbuf_lint.py [--root DIR]    lint the tree (default: repo root)
  irbuf_lint.py --self-test     run the rules against the fixture files
                                in tools/lint/fixtures/ and verify each
                                rule flags exactly its LINT-EXPECT lines

Exit status: 0 clean, 1 violations (or self-test failure), 2 usage error.

A line can be exempted with a trailing `// irbuf-lint: allow(<rule>)`
comment; use sparingly and explain why in an adjacent comment.
"""

import argparse
import os
import re
import sys
from typing import Dict, List, Set, Tuple

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

# (path, line, rule, message)
Violation = Tuple[str, int, str, str]

ALLOW_RE = re.compile(r"//\s*irbuf-lint:\s*allow\(([\w,\s-]+)\)")
EXPECT_RE = re.compile(r"//\s*LINT-EXPECT:\s*([\w,\s-]+)")
LINT_PATH_RE = re.compile(r"//\s*LINT-PATH:\s*(\S+)")


def strip_comments(line: str, in_block: bool) -> Tuple[str, bool]:
    """Removes // and /* */ comment text (string literals are not parsed;
    good enough for lint heuristics on this codebase)."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        out.append(line[i])
        i += 1
    return "".join(out), in_block


def allowed_rules(raw_line: str) -> Set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


# --------------------------------------------------------------------------
# Rule: unguarded-mutex
# --------------------------------------------------------------------------

MUTEX_SCOPE = ("src/serve/", "src/shard/", "src/buffer/", "src/obs/",
               "src/fault/", "tools/")
STD_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:shared_|recursive_|timed_)?mutex\s+(\w+)\s*;")
IRBUF_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:irbuf::)?Mutex\s+(\w+)\s*;")


def check_unguarded_mutex(path: str, code_lines: List[Tuple[int, str, str]],
                          out: List[Violation]) -> None:
    if not path.startswith(MUTEX_SCOPE) or not path.endswith(".h"):
        return
    whole = "\n".join(code for _, code, _ in code_lines)
    for lineno, code, raw in code_lines:
        allow = allowed_rules(raw)
        m = STD_MUTEX_MEMBER_RE.match(code)
        if m and "unguarded-mutex" not in allow:
            out.append((path, lineno, "unguarded-mutex",
                        f"raw std::mutex member '{m.group(1)}' is invisible "
                        "to the thread-safety analysis; use irbuf::Mutex "
                        "from util/mutex.h with IRBUF_GUARDED_BY contracts"))
            continue
        m = IRBUF_MUTEX_MEMBER_RE.match(code)
        if m and "unguarded-mutex" not in allow:
            name = re.escape(m.group(1))
            contract = re.compile(
                r"IRBUF_(?:PT_)?GUARDED_BY\(\s*" + name + r"\s*\)|"
                r"IRBUF_REQUIRES\(\s*" + name + r"\s*\)")
            if not contract.search(whole):
                out.append((path, lineno, "unguarded-mutex",
                            f"mutex '{m.group(1)}' has no IRBUF_GUARDED_BY/"
                            "IRBUF_PT_GUARDED_BY/IRBUF_REQUIRES contract in "
                            "this file; state what it guards"))


# --------------------------------------------------------------------------
# Rule: raw-rand
# --------------------------------------------------------------------------

RAND_SCOPE = ("src/", "bench/", "examples/")
RAND_EXEMPT = ("src/util/rng.h",)
RAW_RAND_RE = re.compile(
    r"\b(?:std::)?(?:s?rand\s*\(|random_device\b|mt19937(?:_64)?\b)")


def check_raw_rand(path: str, code_lines: List[Tuple[int, str, str]],
                   out: List[Violation]) -> None:
    if not path.startswith(RAND_SCOPE) or path in RAND_EXEMPT:
        return
    for lineno, code, raw in code_lines:
        if RAW_RAND_RE.search(code) and "raw-rand" not in allowed_rules(raw):
            out.append((path, lineno, "raw-rand",
                        "nondeterministic/raw randomness breaks bit-for-bit "
                        "reproducibility; route through util/rng.h (Pcg32)"))


# --------------------------------------------------------------------------
# Rule: raw-sleep
# --------------------------------------------------------------------------

SLEEP_SCOPE = ("src/", "bench/", "examples/", "tools/")
RAW_SLEEP_RE = re.compile(
    r"\bsleep_(?:for|until)\s*\(|\b(?:::)?(?:u|nano)sleep\s*\(")


def check_raw_sleep(path: str, code_lines: List[Tuple[int, str, str]],
                    out: List[Violation]) -> None:
    if not path.startswith(SLEEP_SCOPE):
        return
    for lineno, code, raw in code_lines:
        if RAW_SLEEP_RE.search(code) and "raw-sleep" not in allowed_rules(raw):
            out.append((path, lineno, "raw-sleep",
                        "raw sleep is invisible to the fault layer's "
                        "accounting; wait via fault::SleepUs "
                        "(src/fault/backoff.h)"))


# --------------------------------------------------------------------------
# Rule: raw-clock
# --------------------------------------------------------------------------

CLOCK_SCOPE = ("src/core/", "src/serve/", "src/shard/", "src/buffer/",
               "src/storage/", "src/obs/", "src/fault/", "tools/")
RAW_CLOCK_RE = re.compile(
    r"\b(?:std::chrono::)?(?:steady_clock|system_clock|"
    r"high_resolution_clock)\s*::\s*now\s*\(|\bclock_gettime\s*\(|"
    r"\bgettimeofday\s*\(")


def check_raw_clock(path: str, code_lines: List[Tuple[int, str, str]],
                    out: List[Violation]) -> None:
    if not path.startswith(CLOCK_SCOPE):
        return
    for lineno, code, raw in code_lines:
        if RAW_CLOCK_RE.search(code) and "raw-clock" not in allowed_rules(raw):
            out.append((path, lineno, "raw-clock",
                        "raw clock read forks the hot path's timebase; "
                        "use MonotonicNowNs (util/monotonic_clock.h) or an "
                        "obs::ScopedSpan so spans, lock waits and latency "
                        "accounting share one monotonic timeline"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

SOURCE_EXTS = (".cc", ".cpp", ".h")
LINT_DIRS = ("src", "bench", "examples")
# C++ fixture corpora shipped with the tools/ Python entry points: the
# tree run lints them too (at their LINT-PATH virtual path when they
# declare one), so a fixture cannot quietly rot out of the rules it
# demonstrates. Findings on LINT-EXPECT-marked lines are intentional
# and subtracted by run_tree.
FIXTURE_DIRS = ("tools/lint/fixtures", "tools/analyze/fixtures")


def load_tree(root: str) -> Dict[str, List[str]]:
    files: Dict[str, List[str]] = {}
    for top in LINT_DIRS + FIXTURE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if not name.endswith(SOURCE_EXTS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                with open(full, encoding="utf-8", errors="replace") as f:
                    files[rel] = f.read().splitlines()
    return files


def lint_file(path: str, lines: List[str]) -> List[Violation]:
    # (lineno, comment-stripped code, raw line) triples.
    code_lines: List[Tuple[int, str, str]] = []
    in_block = False
    for i, raw in enumerate(lines, start=1):
        code, in_block = strip_comments(raw, in_block)
        code_lines.append((i, code, raw))
    out: List[Violation] = []
    check_unguarded_mutex(path, code_lines, out)
    check_raw_rand(path, code_lines, out)
    check_raw_sleep(path, code_lines, out)
    check_raw_clock(path, code_lines, out)
    return out


def run_tree(root: str) -> int:
    files = load_tree(root)
    violations: List[Violation] = []
    for path, lines in sorted(files.items()):
        lint_path = path
        expected: Set[Tuple[int, str]] = set()
        if path.startswith("tools/"):
            # Fixtures lint at the path they claim to live at, and
            # their deliberate violations (LINT-EXPECT lines) are the
            # fixture working as intended, not tree findings.
            for raw in lines:
                m = LINT_PATH_RE.search(raw)
                if m:
                    lint_path = m.group(1)
                    break
            for i, raw in enumerate(lines, start=1):
                m = EXPECT_RE.search(raw)
                if m:
                    for rule in m.group(1).split(","):
                        expected.add((i, rule.strip()))
        found = lint_file(lint_path, lines)
        violations.extend(
            (path, lineno, rule, msg)
            for (_p, lineno, rule, msg) in found
            if (lineno, rule) not in expected)
    for path, lineno, rule, msg in violations:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    print(f"irbuf_lint: {len(files)} files, {len(violations)} violation(s)")
    return 1 if violations else 0


def run_self_test() -> int:
    fixtures_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fixtures")
    failures = 0
    total_expected = 0
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        full = os.path.join(fixtures_dir, name)
        with open(full, encoding="utf-8") as f:
            lines = f.read().splitlines()
        # The fixture declares the path it pretends to live at, so the
        # path-scoped rules apply.
        virtual_path = None
        for raw in lines:
            m = LINT_PATH_RE.search(raw)
            if m:
                virtual_path = m.group(1)
                break
        if virtual_path is None:
            print(f"self-test: {name}: missing // LINT-PATH: header")
            failures += 1
            continue
        expected: Set[Tuple[int, str]] = set()
        for i, raw in enumerate(lines, start=1):
            m = EXPECT_RE.search(raw)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((i, rule.strip()))
        total_expected += len(expected)
        got = {(lineno, rule)
               for _, lineno, rule, _ in lint_file(virtual_path, lines)}
        for missing in sorted(expected - got):
            print(f"self-test FAIL: {name}:{missing[0]}: expected "
                  f"[{missing[1]}] was not flagged")
            failures += 1
        for extra in sorted(got - expected):
            print(f"self-test FAIL: {name}:{extra[0]}: unexpected "
                  f"[{extra[1]}] finding")
            failures += 1
    if total_expected == 0:
        print("self-test FAIL: no LINT-EXPECT markers found in fixtures")
        return 1
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: ok ({total_expected} expected findings matched)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against the fixture files")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_tree(os.path.abspath(args.root))


if __name__ == "__main__":
    sys.exit(main())
