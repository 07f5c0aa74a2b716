#!/usr/bin/env python3
"""gkeys_lint.py: repo-invariant linter for the gkeys tree.

Enforces the handful of whole-repo invariants that neither the compiler
nor clang-tidy can see, because they are *this repo's* rules rather than
general C++ rules:

  posix-call        Raw POSIX file calls (::open / ::write / ::fsync /
                    ::rename / ::unlink / ::close) are only allowed in
                    src/storage/file_ops.cc — the faultable seam the
                    crash-injection harness scripts. A raw call anywhere
                    else silently escapes fault coverage.
  codec-punning     Codec files (src/storage/, src/io/) must not decode
                    or encode integers with multi-byte memcpy or
                    reinterpret_cast punning; the common/endian.h
                    helpers (PutBe*/GetBe*/varints/ByteReader) define
                    the one on-disk byte order.
  cow-aliasing      const_cast is banned tree-wide: MatchPlan sections
                    are COW-shared across concurrently-running sessions,
                    so casting constness away from any shared structure
                    is a data race waiting for a schedule.
  discarded-status  (void)-casting away a Status-returning call is
                    banned; the sanctioned explicit discard is
                    `.IgnoreError()`, which is grep-able and carries a
                    justification at the call site. ([[nodiscard]] on
                    Status catches bare discards at compile time; this
                    closes the (void) escape hatch.)
  header-hygiene    Every header carries either `#pragma once` or the
                    repo-standard include guard (GKEYS_<PATH>_H_ derived
                    from its path), and every src/ .cc includes its own
                    header first so headers stay self-contained.
  shipped-reach     Every header under src/ must be reachable through
                    quoted #includes from a shipped entry point
                    (tools/gkeys_cli.cc, tools/gkeys_workload.cc,
                    benchmark/gkeys_bench.cc, examples/*.cpp); a reached
                    header also pulls in its own .cc. An unreached
                    header is code libgkeys carries for no shipped
                    caller: test-only code belongs in tests/, dead code
                    goes. (Per header: a dead class inside a live header
                    still needs a reviewer.)
  nondeterminism    rand() / srand() / time(nullptr) are banned outside
                    common/rng.h and common/timer.h; tests and engines
                    seed explicitly so every failure replays.
  simd-confinement  SIMD intrinsics (_mm*, __m128i & friends), intrinsic
                    headers (<*mmintrin.h>, <arm_neon.h>), and
                    architecture #ifdefs (__SSE*/__AVX*) are rejected in
                    every file: they fork behavior by build architecture.
                    Byte scans use std::string_view::find (memchr).

Usage:
  gkeys_lint.py --root /path/to/repo              # lint the tree
  gkeys_lint.py --root /path/to/repo file1 file2  # lint specific files
                                                  # (paths relative to root)

Exits 0 when clean; prints `path:line: [rule] message` per finding and
exits 1 otherwise. Pure stdlib + regex: no libclang, no pip installs.
"""

import argparse
import glob
import os
import re
import sys

# Directories scanned in tree mode, relative to --root.
SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")
# Never scanned in tree mode: seeded-violation corpus for the lint test,
# plus build output.
SKIP_PARTS = {"fixtures", "build", ".git"}
CXX_EXTS = (".cc", ".h", ".cpp", ".hpp")

POSIX_ALLOW = {"src/storage/file_ops.cc"}
POSIX_RE = re.compile(r"::\s*(open|write|fsync|rename|unlink|close)\s*\(")

CODEC_DIRS = ("src/storage/", "src/io/")
CODEC_ALLOW = {"src/common/endian.h"}
MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
REINTERPRET_RE = re.compile(r"\breinterpret_cast\s*<")

CONST_CAST_RE = re.compile(r"\bconst_cast\s*<")

# Status-returning APIs whose result must never be (void)-discarded; the
# sanctioned explicit discard is `.IgnoreError()` (grep-able, documented
# in common/status.h). The compiler's [[nodiscard]] catches bare
# discards; this catches the (void) escape hatch.
DISCARD_RE = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][\w.\->]*"
    r"(AddTriple|RemoveTriple|Apply|Patch|Save|Append|Fsync|Rename|"
    r"Truncate|WriteFull|AddFromDsl)\s*\(")

SIMD_ALLOW = set()
SIMD_INTRIN_RE = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:64|128|256|512)[id]?\b|"
    r"#\s*include\s*<[a-z]*mmintrin\.h>|#\s*include\s*<arm_neon\.h>")
SIMD_MACRO_RE = re.compile(r"__(?:SSE|AVX)\w*__")

RAND_RE = re.compile(r"\b(rand|srand)\s*\(")
TIME_RE = re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)")
NONDET_ALLOW = {"src/common/rng.h", "src/common/timer.h"}

# The shipped entry points: every binary a user runs. Headers under src/
# that none of them reaches are flagged by shipped-reach.
SHIPPED_ENTRY_POINTS = ("tools/gkeys_cli.cc", "tools/gkeys_workload.cc",
                        "benchmark/gkeys_bench.cc", "examples/*.cpp")
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+[<"]([^>"]+)[>"]')


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments — and, unless keep_strings, string/char
    literals — preserving newlines so findings keep their real line
    numbers. Structural checks (#include paths) need keep_strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 2
        elif c in ('"', "'"):
            quote = c
            start = i
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append(text[start:i] if keep_strings else " ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(rel):
    """src/common/status.h -> GKEYS_COMMON_STATUS_H_ (src/ is stripped;
    tests/, tools/, bench/ prefixes are kept)."""
    path = rel[4:] if rel.startswith("src/") else rel
    stem = re.sub(r"\.(h|hpp)$", "", path)
    return "GKEYS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        self._shipped = None  # headers reached from the entry points

    def read(self, rel):
        with open(os.path.join(self.root, rel), encoding="utf-8",
                  errors="replace") as f:
            return f.read()

    def exists(self, rel):
        return os.path.isfile(os.path.join(self.root, rel))

    def resolve_include(self, rel, name):
        """A quoted include resolves next to the including file first,
        then under src/ (the library's include root)."""
        for cand in (os.path.join(os.path.dirname(rel), name),
                     os.path.join("src", name)):
            cand = os.path.normpath(cand).replace(os.sep, "/")
            if self.exists(cand):
                return cand
        return None

    def shipped_headers(self):
        """Every header reached through quoted #includes from the shipped
        entry points; a reached header's own .cc is walked too."""
        if self._shipped is not None:
            return self._shipped
        todo = []
        for pattern in SHIPPED_ENTRY_POINTS:
            todo += sorted(
                os.path.relpath(p, self.root).replace(os.sep, "/")
                for p in glob.glob(os.path.join(self.root, pattern)))
        seen = set(todo)
        while todo:
            rel = todo.pop()
            text = strip_comments_and_strings(self.read(rel),
                                              keep_strings=True)
            found = []
            for line in text.split("\n"):
                m = QUOTED_INCLUDE_RE.match(line)
                if m:
                    found.append(self.resolve_include(rel, m.group(1)))
            if rel.endswith(".h"):
                found.append(rel[:-len(".h")] + ".cc")
            for dep in found:
                if dep is not None and dep not in seen and self.exists(dep):
                    seen.add(dep)
                    todo.append(dep)
        self._shipped = {rel for rel in seen if rel.endswith((".h", ".hpp"))}
        return self._shipped

    def report(self, rel, line, rule, msg):
        self.findings.append((rel, line, rule, msg))

    def scan_regex(self, rel, code_lines, regex, rule, msg):
        for lineno, line in enumerate(code_lines, start=1):
            if regex.search(line):
                self.report(rel, lineno, rule, msg)

    def lint_file(self, rel):
        try:
            raw = self.read(rel)
        except OSError as e:
            self.report(rel, 0, "io", f"cannot read: {e}")
            return
        code_lines = strip_comments_and_strings(raw).split("\n")
        struct_lines = strip_comments_and_strings(
            raw, keep_strings=True).split("\n")

        if rel not in POSIX_ALLOW:
            self.scan_regex(
                rel, code_lines, POSIX_RE, "posix-call",
                "raw POSIX file call; route it through "
                "storage/fileops (src/storage/file_ops.cc) so fault "
                "injection and crash-point enumeration can see it")

        if rel.startswith(CODEC_DIRS) and rel not in CODEC_ALLOW:
            for regex, what in ((MEMCPY_RE, "memcpy"),
                                (REINTERPRET_RE, "reinterpret_cast")):
                self.scan_regex(
                    rel, code_lines, regex, "codec-punning",
                    f"{what} in a codec file; encode/decode integers "
                    "with the common/endian.h helpers instead")

        self.scan_regex(
            rel, code_lines, DISCARD_RE, "discarded-status",
            "(void)-discard of a Status-returning call; use "
            ".IgnoreError() (see common/status.h) so deliberate "
            "discards stay grep-able and justified")

        self.scan_regex(
            rel, code_lines, CONST_CAST_RE, "cow-aliasing",
            "const_cast is banned: plan sections are COW-shared across "
            "threads, and non-const aliasing of shared state races")

        if rel not in SIMD_ALLOW:
            self.scan_regex(
                rel, code_lines, SIMD_INTRIN_RE, "simd-confinement",
                "SIMD intrinsics are not allowed; scan bytes with "
                "std::string_view::find (memchr) instead")
            self.scan_regex(
                rel, code_lines, SIMD_MACRO_RE, "simd-confinement",
                "architecture #ifdefs (__SSE*/__AVX*) are not allowed, so "
                "behavior never forks by build target; scan bytes with "
                "std::string_view::find (memchr) instead")

        if rel not in NONDET_ALLOW:
            self.scan_regex(
                rel, code_lines, RAND_RE, "nondeterminism",
                "rand()/srand() banned; use gkeys::Rng (common/rng.h) "
                "with an explicit seed so failures replay")
            self.scan_regex(
                rel, code_lines, TIME_RE, "nondeterminism",
                "time(nullptr) banned; use common/timer.h for "
                "durations, explicit seeds for randomness")

        if rel.endswith((".h", ".hpp")):
            self.lint_header_guard(rel, struct_lines)
            if rel.startswith("src/") and rel not in self.shipped_headers():
                self.report(
                    rel, 1, "shipped-reach",
                    "no shipped entry point (" +
                    ", ".join(SHIPPED_ENTRY_POINTS) + ") reaches this "
                    "header through #includes: move test-only code to "
                    "tests/ or delete it")
        if rel.endswith(".cc") and rel.startswith("src/"):
            self.lint_own_header_first(rel, struct_lines)

    def lint_header_guard(self, rel, code_lines):
        for lineno, line in enumerate(code_lines, start=1):
            if not line.strip():
                continue
            if PRAGMA_ONCE_RE.match(line):
                return
            m = IFNDEF_RE.match(line)
            if m:
                want = expected_guard(rel)
                if m.group(1) != want:
                    self.report(
                        rel, lineno, "header-hygiene",
                        f"include guard {m.group(1)} does not match the "
                        f"repo convention {want}")
                return
            self.report(
                rel, lineno, "header-hygiene",
                "header must start with #pragma once or its "
                f"{expected_guard(rel)} include guard")
            return
        self.report(rel, 1, "header-hygiene",
                    "header has no include guard or #pragma once")

    def lint_own_header_first(self, rel, code_lines):
        own = rel[len("src/"):-len(".cc")] + ".h"
        if not os.path.exists(os.path.join(self.root, "src", own)):
            return  # no matching header (e.g. a main-only tool)
        for lineno, line in enumerate(code_lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            if m.group(1) != own:
                self.report(
                    rel, lineno, "header-hygiene",
                    f'first include must be its own header "{own}" '
                    "(proves the header is self-contained)")
            return

    def tree_files(self):
        for top in SCAN_DIRS:
            base = os.path.join(self.root, top)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in SKIP_PARTS)
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTS):
                        yield os.path.relpath(
                            os.path.join(dirpath, name), self.root)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True,
                        help="repository root to lint")
    parser.add_argument("files", nargs="*",
                        help="specific files (relative to --root); "
                             "default: whole tree")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    linter = Linter(root)
    files = args.files or list(linter.tree_files())
    for rel in files:
        linter.lint_file(rel.replace(os.sep, "/"))

    for rel, line, rule, msg in linter.findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if linter.findings:
        print(f"gkeys_lint: {len(linter.findings)} finding(s) "
              f"in {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"gkeys_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
