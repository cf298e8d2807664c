#!/usr/bin/env python3
"""qubikos-lint: determinism and hot-path lint for the qubikos C++ tree.

The benchmark's core promise is byte-identical output for identical inputs
(reports, fingerprints, routed circuits), so the rules here target the ways
C++ code silently breaks that promise:

  DET-001  iteration over std::unordered_map/std::unordered_set.  Hash-table
           iteration order is unspecified and varies across libstdc++
           versions, ASLR runs, and insertion histories.  Iterating one to
           build output, accumulate floating point, or feed a fingerprint
           makes the result machine-dependent.  Fix: iterate a plan-ordered
           or sorted sequence and use the hash table for lookup only.
  DET-002  ambient nondeterminism: rand()/srand(), std::random_device,
           time(nullptr), and wall-clock reads (system_clock/steady_clock/
           high_resolution_clock) outside the telemetry layer.  All
           randomness must come from util/rng.hpp seeded by the campaign
           plan; all timing belongs in src/obs/ or src/util/.
  DET-003  address-dependent ordering or hashing: pointer-keyed ordered
           containers (std::map/std::set with a pointer key order by
           address), std::hash over pointer types, and uintptr_t casts.
           Addresses change run to run, so any order or hash derived from
           them does too.
  PERF-001 allocation inside a loop in files marked `// qubikos-lint:
           hot-path`.  The routing inner loops are the benchmark's hot
           path; a vector or string constructed per iteration turns an
           O(1) step into an allocator call.  Hoist the container and
           clear()/reuse it.
  LAYER-001 a distance_provider constructed (or owned by value) under
           src/router/.  Routers receive distances from their caller, which
           builds one provider per device and shares it; a router that
           builds its own would silently rebuild O(V^2) state per call and
           could read distances of a different graph than it routes on.
  LINT-001 suppression directive without a reason (see below).
  LINT-002 suppression directive that matched no finding (stale allow).
  LINT-003 a file on the REQUIRED_HOT_PATH list is missing its
           `// qubikos-lint: hot-path` marker.  The routing inner loops
           (sabre.cpp, common.cpp, score_kernel.cpp) must stay opted in
           to PERF-001 — without this rule, deleting the marker comment
           would silently switch the allocation lint off for exactly the
           files it exists for.

Suppressions: a finding is silenced by a directive on the same line or the
line immediately above:

    // qubikos-lint: allow(DET-001) max over set is order-independent

The reason text after the rule is mandatory; suppressions are counted and
the total is gated by --max-suppressions so they cannot accumulate quietly.

A file opts into PERF-001 with a `// qubikos-lint: hot-path` marker comment
anywhere in the file (conventionally in the header comment).

The analysis is intentionally a single-file regex/scope-tracking hybrid,
not a full C++ frontend: when linting foo.cpp the companion foo.hpp in the
same directory is also scanned for unordered-container member declarations,
but no other cross-file resolution happens.  The tradeoff is pinned by
--self-test, which runs every fixture under scripts/lint_fixtures/ and
requires each `// expect: RULE` annotation to fire exactly where written
and nothing else to fire at all.  A fixture for a path-scoped rule names
the path it stands in for with a `// lint-fixture-path: src/...` line.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

DET_PATH_CLOCK_EXEMPT = ("src/obs/", "src/util/")

RULES = {
    "DET-001": "iteration over unordered container (hash order is nondeterministic)",
    "DET-002": "ambient nondeterminism (rand/random_device/wall clock)",
    "DET-003": "address-dependent ordering or hashing",
    "PERF-001": "allocation inside a loop in a hot-path file",
    "LAYER-001": "router constructs a distance_provider (routers receive distances)",
    "LINT-001": "qubikos-lint suppression without a reason",
    "LINT-002": "qubikos-lint suppression matched no finding",
    "LINT-003": "required hot-path file is missing its hot-path marker",
}

# The routers' inner loops: these files must always carry the
# `// qubikos-lint: hot-path` marker so PERF-001 keeps covering them.
REQUIRED_HOT_PATH = {
    "src/router/common.cpp",
    "src/router/sabre.cpp",
    "src/router/score_kernel.cpp",
}

# Files under this prefix receive distances and never build them.
ROUTER_PREFIX = "src/router/"

# By-value declarations (`distance_provider d(g);`, `distance_provider d;`,
# `= distance_provider(...)`), temporaries and `new` (`distance_provider(`
# / `distance_provider{`), and template arguments that own or allocate
# one (`make_shared<distance_provider>`, `std::optional<distance_provider>`).
# References and pointers (`distance_provider&`, `distance_provider*`) pass.
LAYER1_PATTERNS = [
    re.compile(r"\bdistance_provider\s+[A-Za-z_]\w*\s*[;({=]"),
    re.compile(r"\bdistance_provider\s*[({]"),
    re.compile(r"<\s*(?:const\s+)?(?:qubikos::)?distance_provider\s*>"),
]
FIXTURE_PATH_RE = re.compile(r"//\s*lint-fixture-path:\s*(?P<path>\S+)")

ALLOW_RE = re.compile(r"//\s*qubikos-lint:\s*allow\((?P<rule>[A-Z]+-\d+)\)\s*(?P<reason>.*)")
HOT_PATH_RE = re.compile(r"//\s*qubikos-lint:\s*hot-path\b")
EXPECT_RE = re.compile(r"//\s*expect:\s*(?P<rule>[A-Z]+-\d+)")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<"
)
# After the balanced template argument list: optional ref/const noise, then
# the declared name.  `&` declarations (references bound to getters) count
# too — iterating the reference iterates the hash table.
DECL_NAME_RE = re.compile(r"[&\s]*(?:const\s+)?[&\s]*(?P<name>[A-Za-z_]\w*)\s*[;,({=)]")

# The range-for colon must not be half of a `::` scope operator.
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?(?<!:):(?!:)\s*(?:this->)?(?P<expr>[A-Za-z_][\w.\->]*?)(?:\(\))?\s*\)"
)
# Only begin(): `it != m.end()` is the sanctioned find-lookup idiom.
BEGIN_ITER_RE = re.compile(r"(?:this->)?(?P<expr>[A-Za-z_][\w.\->]*)\.c?begin\s*\(")

DET2_ANYWHERE = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time(nullptr)"),
]
DET2_CLOCKS = re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b")

DET3_PATTERNS = [
    (re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"), "std::hash over a pointer type"),
    (
        re.compile(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+\s*\*"),
        "pointer-keyed ordered container (orders by address)",
    ),
    (
        re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
        "pointer-to-integer cast (address leaks into a value)",
    ),
]

# `&`/`*` between the type and the name means a reference or pointer
# binding, which does not allocate — only by-value declarations count.
PERF_ALLOC_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?std::"
    r"(?:vector|string|unordered_map|unordered_set|map|set|deque|list|ostringstream|stringstream)\b"
    r"[^;={&*]*\b[A-Za-z_]\w*\s*[;({=]"
)
PERF_NEW_RE = re.compile(r"(?<![\w.>])new\b(?!\s*\()")
LOOP_HEAD_RE = re.compile(r"(?:^|[;{}\s])(?:for|while)\s*\($")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    suppressed: bool = False
    suppress_reason: str = ""


@dataclass
class FileText:
    """A source file with comments/strings stripped but line numbers kept."""

    path: str
    raw_lines: list[str]
    code_lines: list[str] = field(default_factory=list)

    @classmethod
    def load(cls, path: str) -> "FileText":
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read().split("\n")
        ft = cls(path=path, raw_lines=raw)
        ft.code_lines = strip_comments_and_strings(raw)
        return ft


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments, string literals, and char literals.

    Stripped spans are replaced with spaces so column math stays valid.
    Handles // and /* */ comments, "..." and '...' literals with escapes,
    and the R"( ... )" raw-string form with an empty delimiter.
    """
    out: list[str] = []
    in_block = False
    in_raw = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if in_raw:
                if c == ")" and i + 1 < n and line[i + 1] == '"':
                    in_raw = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
                continue
            if c == "R" and line.startswith('R"(', i):
                in_raw = True
                buf.append("   ")
                i += 3
                continue
            if c in "\"'":
                quote = c
                buf.append(" ")
                i += 1
                while i < n:
                    if line[i] == "\\":
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(" ")
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def balanced_template_end(text: str, start: int) -> int:
    """Index just past the `>` closing the `<` at text[start], or -1."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def unordered_names(code_lines: list[str]) -> set[str]:
    """Names declared (in this text) as unordered containers."""
    names: set[str] = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        open_angle = m.end() - 1
        end = balanced_template_end(text, open_angle)
        if end < 0:
            continue
        dm = DECL_NAME_RE.match(text, end)
        if dm:
            names.add(dm.group("name"))
    return names


def companion_header(path: str) -> str | None:
    if path.endswith(".cpp"):
        header = path[:-4] + ".hpp"
        if os.path.exists(header):
            return header
    return None


def last_component(expr: str) -> str:
    """`merged.failures` / `store->statuses_` / `statuses` -> final name."""
    return re.split(r"\.|->", expr)[-1]


def loop_depths(code_lines: list[str]) -> list[int]:
    """Per-line count of enclosing for/while scopes (brace-delimited).

    Single-statement (braceless) loop bodies on the same line as the loop
    head are treated as depth >= 1 by the callers via LOOP_HEAD_RE on the
    line itself; this function only tracks braced scopes.
    """
    depths: list[int] = []
    scope_is_loop: list[bool] = []
    stmt = ""  # text of the current statement, reset at ; { }
    pending_paren = 0
    for line in code_lines:
        depths.append(sum(scope_is_loop))
        for c in line:
            if c == "{" and pending_paren == 0:
                scope_is_loop.append(bool(re.search(r"\b(?:for|while)\s*\([^{]*$|\b(?:for|while)\s*\(.*\)\s*$", stmt)))
                stmt = ""
            elif c == "}" and pending_paren == 0:
                if scope_is_loop:
                    scope_is_loop.pop()
                stmt = ""
            elif c == ";" and pending_paren == 0:
                stmt = ""
            else:
                if c == "(":
                    pending_paren += 1
                elif c == ")":
                    pending_paren = max(0, pending_paren - 1)
                stmt += c
        stmt += " "
    return depths


def lint_file(path: str, rel: str) -> tuple[list[Finding], int]:
    """Returns (findings, suppression_count) for one file."""
    ft = FileText.load(path)
    names = unordered_names(ft.code_lines)
    header = companion_header(path)
    if header:
        names |= unordered_names(FileText.load(header).code_lines)

    hot = any(HOT_PATH_RE.search(line) for line in ft.raw_lines)
    clock_exempt = any(rel.startswith(p) or ("/" + p) in ("/" + rel) for p in DET_PATH_CLOCK_EXEMPT)

    findings: list[Finding] = []

    def add(line_no: int, rule: str, message: str) -> None:
        findings.append(Finding(rel, line_no, rule, message))

    if rel.replace(os.sep, "/") in REQUIRED_HOT_PATH and not hot:
        add(1, "LINT-003",
            "routing hot-path file must carry a `// qubikos-lint: hot-path` marker")

    in_router = rel.replace(os.sep, "/").startswith(ROUTER_PREFIX)
    depths = loop_depths(ft.code_lines)
    for idx, code in enumerate(ft.code_lines):
        line_no = idx + 1

        # LAYER-001 ------------------------------------------------------
        if in_router and any(pat.search(code) for pat in LAYER1_PATTERNS):
            add(line_no, "LAYER-001",
                "distance_provider constructed in a router (take it as a const& parameter)")

        # DET-001 --------------------------------------------------------
        for m in RANGE_FOR_RE.finditer(code):
            if last_component(m.group("expr")) in names:
                add(line_no, "DET-001",
                    f"range-for over unordered container '{m.group('expr')}'")
        for m in BEGIN_ITER_RE.finditer(code):
            if last_component(m.group("expr")) in names:
                add(line_no, "DET-001",
                    f"iterator walk over unordered container '{m.group('expr')}'")

        # DET-002 --------------------------------------------------------
        for pat, what in DET2_ANYWHERE:
            if pat.search(code):
                add(line_no, "DET-002", f"{what} in deterministic code")
        if not clock_exempt and DET2_CLOCKS.search(code):
            add(line_no, "DET-002",
                "wall-clock read outside src/obs//src/util (timing belongs in telemetry)")

        # DET-003 --------------------------------------------------------
        for pat, what in DET3_PATTERNS:
            if pat.search(code):
                add(line_no, "DET-003", what)

        # PERF-001 -------------------------------------------------------
        if hot:
            in_loop = depths[idx] > 0
            has_loop_head = re.search(r"\b(?:for|while)\s*\(", code) is not None
            if in_loop and PERF_ALLOC_DECL_RE.search(code):
                add(line_no, "PERF-001",
                    "allocating container constructed inside a loop (hoist and reuse)")
            elif has_loop_head and re.search(
                # Braceless body on the loop-head line itself:
                # `for (...) std::string s = f();`
                r"\)\s*(?:const\s+)?std::(?:vector|string|ostringstream|unordered_map|"
                r"unordered_set|map|set|deque)\b[^;]*\b\w+\s*[;({=]", code
            ):
                add(line_no, "PERF-001",
                    "allocating container constructed inside a loop (hoist and reuse)")
            if (in_loop or has_loop_head) and PERF_NEW_RE.search(code):
                add(line_no, "PERF-001", "raw `new` inside a loop")

    # Suppressions -------------------------------------------------------
    allows: dict[int, tuple[str, str]] = {}
    for idx, raw in enumerate(ft.raw_lines):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        line_no = idx + 1
        # Fixtures stack `// expect:` markers after the directive; they are
        # annotations for --self-test, not part of the reason.
        reason = re.sub(r"//\s*expect:.*$", "", m.group("reason")).strip()
        if not reason:
            findings.append(Finding(rel, line_no, "LINT-001",
                                    f"allow({m.group('rule')}) has no reason"))
            continue
        allows[line_no] = (m.group("rule"), reason)

    used_allows: set[int] = set()
    suppressed = 0
    for f in findings:
        if f.rule.startswith("LINT-"):
            continue
        for cand in (f.line, f.line - 1):
            rule_reason = allows.get(cand)
            if rule_reason and rule_reason[0] == f.rule:
                f.suppressed = True
                f.suppress_reason = rule_reason[1]
                used_allows.add(cand)
                suppressed += 1
                break
    for line_no, (rule, _) in sorted(allows.items()):
        if line_no not in used_allows:
            findings.append(Finding(rel, line_no, "LINT-002",
                                    f"allow({rule}) matched no finding (stale suppression)"))

    findings.sort(key=lambda f: (f.line, f.rule))
    return findings, suppressed


def collect_sources(root: str, paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def run_lint(root: str, paths: list[str], max_suppressions: int) -> int:
    total_suppressed = 0
    visible: list[Finding] = []
    for path in collect_sources(root, paths):
        rel = os.path.relpath(path, root)
        findings, suppressed = lint_file(path, rel)
        total_suppressed += suppressed
        visible.extend(f for f in findings if not f.suppressed)
    for f in visible:
        print(f"{f.path}:{f.line}: {f.rule}: {f.message}")
    budget_ok = total_suppressed <= max_suppressions
    print(f"qubikos-lint: {len(visible)} finding(s), {total_suppressed} suppressed "
          f"(budget {max_suppressions})")
    if not budget_ok:
        print(f"qubikos-lint: suppression budget exceeded "
              f"({total_suppressed} > {max_suppressions}); "
              "fix findings instead of allowing them, or raise the budget "
              "in CMakeLists.txt/ci.yml with a rationale")
    return 0 if not visible and budget_ok else 1


def run_self_test(root: str) -> int:
    # Fixtures live next to this script, so --self-test works from any cwd
    # (CTest runs it from the build directory).
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")
    del root
    if not os.path.isdir(fixtures):
        print(f"qubikos-lint: fixture directory missing: {fixtures}")
        return 2
    failures: list[str] = []
    checked = 0
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith((".cpp", ".hpp")):
            continue
        path = os.path.join(fixtures, name)
        rel = os.path.join("scripts", "lint_fixtures", name)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().split("\n")
        expected: set[tuple[int, str]] = set()
        for idx, line in enumerate(raw_lines):
            for m in EXPECT_RE.finditer(line):
                expected.add((idx + 1, m.group("rule")))
            m = FIXTURE_PATH_RE.search(line)
            if m:
                rel = m.group("path")
        findings, suppressed = lint_file(path, rel)
        actual = {(f.line, f.rule) for f in findings if not f.suppressed}
        checked += 1
        if name.startswith("good_"):
            if actual:
                failures.append(f"{name}: expected clean, got {sorted(actual)}")
            if expected:
                failures.append(f"{name}: good_ fixture must not carry expect: markers")
            # Suppression-machinery fixtures assert the allow was counted.
            if "suppressed" in name and suppressed == 0:
                failures.append(f"{name}: expected a counted suppression, got none")
            continue
        if actual != expected:
            missing = sorted(expected - actual)
            spurious = sorted(actual - expected)
            failures.append(f"{name}: missing={missing} spurious={spurious}")
    if checked == 0:
        failures.append("no fixtures found")
    for f in failures:
        print(f"qubikos-lint self-test FAIL: {f}")
    print(f"qubikos-lint self-test: {checked} fixture(s), {len(failures)} failure(s)")
    return 0 if not failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument("--max-suppressions", type=int, default=8,
                        help="fail if more than this many findings are allow()ed")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against scripts/lint_fixtures/")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to --root (default: src)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0
    if args.self_test:
        return run_self_test(os.path.abspath(args.root))
    paths = args.paths or ["src"]
    return run_lint(os.path.abspath(args.root), paths, args.max_suppressions)


if __name__ == "__main__":
    sys.exit(main())
