#!/usr/bin/env python3
"""Repo-specific lint for the BQS codebase.

Three rules, all cheap textual checks that encode invariants the compiler
cannot see:

  hot-path-transcendental
      The PR 4 kernel made the steady-state decision path transcendental-
      free; every remaining atan2/sqrt/sin/cos/fmod in a hot-path TU must
      be *accounted* — either an ``ops::Count*`` call appears within the
      three preceding lines (the op-counter idiom used throughout
      src/core), or the site is listed in transcendental_allowlist.txt
      with a justification. A new unaccounted call is exactly the kind of
      silent regression the paper's O(1)-per-point claim forbids.

  service-alloc-budget
      src/service steady-state code pools everything (BlockArena,
      session pool, SpscRing) and synchronises through the annotated
      Mutex wrapper. Naked ``new`` / ``malloc`` / ``std::mutex`` tokens
      are budgeted per file in service_alloc_budget.txt (today: zero).
      Raising a budget is allowed but must be done consciously, in the
      committed budget file, where a reviewer sees it.

  include-hygiene
      Quoted includes must follow the layer DAG that CMake encodes as
      target link dependencies. A lower layer including a higher one
      (e.g. geometry -> core) compiles fine — include paths are flat —
      but inverts the architecture; this rule catches it at lint time.

  fault-injection-containment
      common/fault_injector.h is a *test harness*: deterministic fault
      schedules the overload tests and fuzzers drive through
      FleetEngineOptions::fault_injector and
      KeyPointWalOptions::fault_injector. Its hooks are allowed in
      exactly the files that define and consume those options
      (FAULT_INJECTION_ALLOWLIST); any other src/ file naming
      FaultInjector/FaultSite or including the header is a violation.
      Tests, fuzzers and benches live outside src/ and are unrestricted.
      This keeps injected-fault surface area auditable: a fault hook
      quietly sprouting in a compressor kernel would otherwise be
      invisible until it misfired in production.

  oracle-hook-containment
      internal::KernelOracle selects the test oracles production output is
      checksummed against (the seed's transcendental reference kernel and
      the flat-buffer/hull migration point) and the ablations the benches
      measure (rotation on/off and warm-up length, and the paper-literal
      trivial include and Eq. (8) bounds, which can exceed the error
      bound). Production runs one kernel, one migration point and the
      sound rules with the default rotation, and BqsOptions carries only
      epsilon and the metric, so the hook may be named only where the
      engine defines and forwards it (ORACLE_HOOK_ALLOWLIST:
      segment_state.{h,cc} and the BQS/FBQS compressor headers). Tests,
      fuzzers and benches live outside src/ and are unrestricted. A
      production caller naming the hook would put an oracle or an unsound
      configuration back on the fleet path.

  file-io-containment
      Durable state has exactly one home: src/storage (the WAL and its
      recovery path), where every write is CRC-framed, fsync-gated and
      crash-sweep tested. Any other src/ file opening file descriptors
      or streams is either a debugging leftover or a second persistence
      path that dodges those guarantees. The two historical exceptions
      are pinned in FILE_IO_ALLOWLIST: csv_io.cc (the documented CSV
      import/export boundary) and eval/table.cc (report emission, not
      state). Tests/benches/fuzzers live outside src/ and may do I/O.
      Inside src/storage, whole-file streams, directory descriptors and
      renames belong to the one file layer (FILE_IO_HOME,
      storage/file_io.cc): those are the tokens whose private copies in
      the WAL, the manifest and the compactor each grew their own rules.

  intrinsics-containment
      The SIMD dispatch layer (common/simd.h) promises the rest of the
      repo sees only enums, POD structs and function pointers; the
      intrinsics live in exactly two kernel translation units, compiled
      with the right -m flags and reached only through the
      runtime-dispatch table, plus the SSE4.2 CRC32C path that
      crc32c::Extend selects the same way (INTRINSICS_ALLOWLIST). Any other src/ file including an
      x86 intrinsics header or naming an ``_mm*`` / ``__m128`` /
      ``__m256`` token breaks that containment: it either compiles a
      vector instruction into a TU that may run on a CPU without the
      feature, or smuggles a second, unlinted copy of a kernel past the
      byte-identity audit trail in simd_lanes.h.

  framing-containment
      Every durable byte is framed by the one storage codec
      (storage/codec.h): one file header, one length + CRC32C frame, one
      point-column coder, shared by WAL segments, block files and the
      MANIFEST. Only that header and the checksum itself
      (FRAMING_ALLOWLIST) may call ``crc32c::`` or the fixed-width
      little-endian put/get helpers; any other src/ file doing so is a
      private framing growing back — a format whose truncation, flip and
      version rules the codec tests and fuzzers no longer cover.

Exit codes: 0 clean, 1 violations found, 2 configuration/usage error.
"""

import argparse
import fnmatch
import os
import re
import sys

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# TUs on the per-point decision path. src/geometry/angle.cc is included
# because NormalizeAngle* sits under the quadrant maintenance path.
HOT_PATH_GLOBS = (
    "src/core/*.cc",
    "src/core/*.h",
    "src/service/*.cc",
    "src/service/*.h",
    "src/geometry/angle.cc",
)

TRANSCENDENTAL_RE = re.compile(
    r"\b(?:std::)?(?:atan2|sqrt|fmod|sin|cos|sinh|cosh|tan|asin|acos|atan|hypot|pow|exp|log)f?\s*\("
)

# An ops::Count* call on the same line or within this many preceding lines
# marks a transcendental site as accounted.
OP_COUNTER_RE = re.compile(r"\bops::Count\w*\s*\(")
OP_COUNTER_WINDOW = 3

# Layer DAG, mirroring the bqs_add_layer DEPS edges in CMakeLists.txt.
# Each entry lists the layers whose headers that layer may include.
LAYER_DEPS = {
    "common": set(),
    "geometry": {"common"},
    "geo": {"geometry"},
    "trajectory": {"geo"},
    "core": {"trajectory"},
    "baselines": {"trajectory"},
    "simulation": {"trajectory"},
    "storage": {"baselines"},
    "eval": {"core", "baselines", "simulation"},
    "service": {"eval", "storage"},
}

# Tokens budgeted by service_alloc_budget.txt. Order matters only for
# stable output. ``new`` is matched as a whole word so NewWindow/renew
# never trip it.
BUDGET_TOKENS = {
    "new": re.compile(r"\bnew\b"),
    "malloc": re.compile(r"\bmalloc\s*\("),
    "std::mutex": re.compile(r"\bstd::mutex\b"),
}

SOURCE_EXTENSIONS = (".h", ".cc")

# The only src/ files that may name the fault-injection harness: the
# harness itself plus the components that expose an injection option
# (the fleet engine, the key-point WAL writer, and the compaction
# pipeline with its manifest I/O).
FAULT_INJECTION_ALLOWLIST = {
    "src/common/fault_injector.h",
    "src/service/fleet_engine.h",
    "src/service/fleet_engine.cc",
    "src/storage/compaction.h",
    "src/storage/compaction.cc",
    "src/storage/file_io.h",
    "src/storage/file_io.cc",
    "src/storage/keypoint_wal.h",
    "src/storage/keypoint_wal.cc",
    "src/storage/manifest.h",
    "src/storage/manifest.cc",
}
FAULT_TOKEN_RE = re.compile(r"\b(?:FaultInjector|FaultSite)\b")
FAULT_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s+"common/fault_injector\.h"')

# The only src/ files that may name the kernel oracle hook: the engine
# that defines it and the two compressors that forward it.
ORACLE_HOOK_ALLOWLIST = {
    "src/core/segment_state.h",
    "src/core/segment_state.cc",
    "src/core/bqs_compressor.h",
    "src/core/fbqs_compressor.h",
}
ORACLE_HOOK_TOKEN_RE = re.compile(r"\bKernelOracle\b")

# File I/O belongs to the storage layer; these two files are the pinned
# exceptions (import/export boundary and report emission).
FILE_IO_ALLOWLIST = {
    "src/trajectory/csv_io.cc",
    "src/eval/table.cc",
}
FILE_IO_LAYER_PREFIX = "src/storage/"
FILE_IO_TOKEN_RE = re.compile(
    r"\b(?:std::(?:o|i)?fstream|std::filesystem|fopen|freopen|fsync"
    r"|fdatasync)\b|::(?:open|creat|write|pwrite)\s*\(")
# Within the storage layer, only the shared file layer may stream whole
# files, open directories or rename.
FILE_IO_HOME = "src/storage/file_io.cc"
STORAGE_FILE_IO_TOKEN_RE = re.compile(
    r"\bstd::(?:o|i)?fstream\b|\bO_DIRECTORY\b|::rename\s*\(")

# The only src/ files that may touch x86 SIMD intrinsics: the two kernel
# tiers behind the runtime-dispatch table in common/simd.h, and the
# crc32-instruction CRC32C that crc32c::Extend selects after CPUID.
INTRINSICS_ALLOWLIST = {
    "src/common/simd_avx2.cc",
    "src/common/simd_sse2.cc",
    "src/common/crc32c_sse42.cc",
}
INTRINSIC_TOKEN_RE = re.compile(r"\b(?:_mm\w*|__m128[di]?|__m256[di]?)\b")
INTRINSIC_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s+<"
    r"(?:immintrin|emmintrin|xmmintrin|smmintrin|tmmintrin|pmmintrin"
    r"|nmmintrin|wmmintrin|ammintrin|x86intrin)\.h>")


# The only src/ files that may checksum or hand-pack fixed-width fields.
FRAMING_ALLOWLIST = {
    "src/common/crc32c.h",
    "src/common/crc32c.cc",
    "src/storage/codec.h",
}
FRAMING_TOKEN_RE = re.compile(
    r"\bcrc32c::|\b(?:Put|Get)(?:U16|U32|F64|Fixed(?:16|32|64))\s*\(")


def layer_closure():
    """Transitive closure of LAYER_DEPS: layer -> set of includable layers."""
    closure = {}

    def visit(layer):
        if layer in closure:
            return closure[layer]
        allowed = {layer}
        for dep in LAYER_DEPS[layer]:
            allowed |= visit(dep)
        closure[layer] = allowed
        return allowed

    for layer in LAYER_DEPS:
        visit(layer)
    return closure


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Returns text with comments and string/char literals blanked out.

    Line structure is preserved (newlines kept) so line numbers still
    line up. A small state machine is plenty for this codebase; raw
    strings are not used anywhere in src/.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        self.code_lines = strip_comments_and_strings(self.raw).splitlines()


def find_sources(root, subdir="src"):
    result = []
    top = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(top):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                full = os.path.join(dirpath, name)
                result.append(os.path.relpath(full, root).replace(os.sep, "/"))
    return sorted(result)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    pass


def load_allowlist(path):
    """Allowlist lines: ``<relpath> <regex>`` (regex matched against the
    raw source line). ``#`` comments and blank lines are skipped."""
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(
                    f"{path}:{lineno}: expected '<relpath> <regex>'")
            relpath, pattern = parts
            try:
                entries.append((relpath, re.compile(pattern)))
            except re.error as err:
                raise ConfigError(f"{path}:{lineno}: bad regex: {err}")
    return entries


def load_budgets(path):
    """Budget lines: ``<relpath-glob> <token> <max>``."""
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(
                    f"{path}:{lineno}: expected '<glob> <token> <max>'")
            glob, token, budget = parts
            if token not in BUDGET_TOKENS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown token '{token}' "
                    f"(known: {', '.join(sorted(BUDGET_TOKENS))})")
            try:
                entries.append((glob, token, int(budget)))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: budget must be an int")
    return entries


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_transcendentals(files, allowlist, violations):
    hot = [f for f in files
           if any(fnmatch.fnmatch(f.relpath, g) for g in HOT_PATH_GLOBS)]
    for src in hot:
        applicable = [rx for (rel, rx) in allowlist if rel == src.relpath]
        for idx, code in enumerate(src.code_lines):
            if not TRANSCENDENTAL_RE.search(code):
                continue
            window = src.code_lines[max(0, idx - OP_COUNTER_WINDOW):idx + 1]
            if any(OP_COUNTER_RE.search(w) for w in window):
                continue  # accounted by an adjacent op counter
            raw = src.raw_lines[idx] if idx < len(src.raw_lines) else code
            if any(rx.search(raw) for rx in applicable):
                continue  # explicitly allowlisted
            violations.append(
                ("hot-path-transcendental", src.relpath, idx + 1,
                 f"unaccounted transcendental call: '{raw.strip()}' — add an "
                 f"ops::Count* call within {OP_COUNTER_WINDOW} lines above, "
                 f"or justify it in tools/lint/transcendental_allowlist.txt"))


def check_service_budgets(files, budgets, violations):
    service = [f for f in files if f.relpath.startswith("src/service/")]
    for src in service:
        counts = {}
        first_line = {}
        for idx, code in enumerate(src.code_lines):
            for token, rx in BUDGET_TOKENS.items():
                hits = len(rx.findall(code))
                if hits:
                    counts[token] = counts.get(token, 0) + hits
                    first_line.setdefault(token, idx + 1)
        for token, count in sorted(counts.items()):
            budget = 0
            for glob, btoken, bmax in budgets:
                if btoken == token and fnmatch.fnmatch(src.relpath, glob):
                    budget = max(budget, bmax)
            if count > budget:
                violations.append(
                    ("service-alloc-budget", src.relpath, first_line[token],
                     f"{count} '{token}' token(s), budget is {budget} — "
                     f"pool the allocation / use bqs::Mutex, or raise the "
                     f"budget in tools/lint/service_alloc_budget.txt"))


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def check_include_hygiene(files, violations):
    closure = layer_closure()
    for src in files:
        parts = src.relpath.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        layer = parts[1]
        if layer not in closure:
            violations.append(
                ("include-hygiene", src.relpath, 1,
                 f"unknown layer '{layer}' — add it to LAYER_DEPS in "
                 f"tools/lint/repo_lint.py"))
            continue
        allowed = closure[layer]
        # Raw lines: the comment/string stripper blanks the quoted path.
        for idx, code in enumerate(src.raw_lines):
            m = INCLUDE_RE.match(code)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target in LAYER_DEPS and target not in allowed:
                violations.append(
                    ("include-hygiene", src.relpath, idx + 1,
                     f"layer '{layer}' may not include layer '{target}' "
                     f"(allowed: {', '.join(sorted(allowed))}) — the layer "
                     f"DAG mirrors the CMake link graph"))


def check_fault_injection_containment(files, violations):
    for src in files:
        if src.relpath in FAULT_INJECTION_ALLOWLIST:
            continue
        for idx, code in enumerate(src.code_lines):
            raw = src.raw_lines[idx] if idx < len(src.raw_lines) else code
            # Token hits come from comment-stripped code; the include hit
            # needs the raw line (the stripper blanks the quoted path).
            if not (FAULT_TOKEN_RE.search(code)
                    or FAULT_INCLUDE_RE.match(raw)):
                continue
            violations.append(
                ("fault-injection-containment", src.relpath, idx + 1,
                 "fault-injection harness referenced outside its "
                 "containment: only "
                 f"{', '.join(sorted(FAULT_INJECTION_ALLOWLIST))} may name "
                 "FaultInjector/FaultSite or include "
                 "common/fault_injector.h (tests and fuzzers outside "
                 "src/ are unrestricted)"))


def check_oracle_hook_containment(files, violations):
    for src in files:
        if src.relpath in ORACLE_HOOK_ALLOWLIST:
            continue
        for idx, code in enumerate(src.code_lines):
            if not ORACLE_HOOK_TOKEN_RE.search(code):
                continue
            violations.append(
                ("oracle-hook-containment", src.relpath, idx + 1,
                 "test/bench-only kernel oracle hook named in production "
                 "code: only "
                 f"{', '.join(sorted(ORACLE_HOOK_ALLOWLIST))} may name "
                 "KernelOracle (tests, fuzzers and benches outside src/ "
                 "are unrestricted)"))


def check_file_io_containment(files, violations):
    for src in files:
        if src.relpath in FILE_IO_ALLOWLIST or src.relpath == FILE_IO_HOME:
            continue
        in_storage = src.relpath.startswith(FILE_IO_LAYER_PREFIX)
        token_re = STORAGE_FILE_IO_TOKEN_RE if in_storage else FILE_IO_TOKEN_RE
        for idx, code in enumerate(src.code_lines):
            if not token_re.search(code):
                continue
            raw = src.raw_lines[idx] if idx < len(src.raw_lines) else code
            if in_storage:
                violations.append(
                    ("file-io-containment", src.relpath, idx + 1,
                     f"file handling outside the storage file layer: "
                     f"'{raw.strip()}' — inside src/storage only "
                     f"{FILE_IO_HOME} may use std::ifstream/std::ofstream, "
                     "O_DIRECTORY or ::rename(; call ReadFileBytes, FsyncDir "
                     "or WriteFileAtomic from storage/file_io.h instead"))
                continue
            violations.append(
                ("file-io-containment", src.relpath, idx + 1,
                 f"file I/O outside the storage layer: '{raw.strip()}' — "
                 "durable state goes through src/storage (CRC-framed, "
                 "fsync-gated, crash-sweep tested); if this is a new "
                 "import/export boundary, pin it in FILE_IO_ALLOWLIST in "
                 "tools/lint/repo_lint.py where a reviewer sees it"))


def check_intrinsics_containment(files, violations):
    for src in files:
        if src.relpath in INTRINSICS_ALLOWLIST:
            continue
        for idx, code in enumerate(src.code_lines):
            raw = src.raw_lines[idx] if idx < len(src.raw_lines) else code
            # Token hits come from comment-stripped code; the include hit
            # needs the raw line (the stripper leaves <...> paths alone,
            # but matching raw keeps the two rules symmetric).
            if not (INTRINSIC_TOKEN_RE.search(code)
                    or INTRINSIC_INCLUDE_RE.match(raw)):
                continue
            violations.append(
                ("intrinsics-containment", src.relpath, idx + 1,
                 "SIMD intrinsics outside the dispatch layer: only "
                 f"{', '.join(sorted(INTRINSICS_ALLOWLIST))} may include an "
                 "x86 intrinsics header or use _mm*/__m128/__m256 tokens — "
                 "add a lane op to the V wrapper structs and a width-generic "
                 "body to common/simd_lanes.h instead"))


def check_framing_containment(files, violations):
    for src in files:
        if src.relpath in FRAMING_ALLOWLIST:
            continue
        for idx, code in enumerate(src.code_lines):
            if not FRAMING_TOKEN_RE.search(code):
                continue
            raw = src.raw_lines[idx] if idx < len(src.raw_lines) else code
            violations.append(
                ("framing-containment", src.relpath, idx + 1,
                 f"private framing outside the storage codec: "
                 f"'{raw.strip()}' — only "
                 f"{', '.join(sorted(FRAMING_ALLOWLIST))} may call crc32c:: "
                 "or the fixed-width put/get helpers; build headers, frames "
                 "and point columns with storage/codec.h instead"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(root, allowlist_path, budget_path, out=sys.stdout):
    try:
        allowlist = load_allowlist(allowlist_path)
        budgets = load_budgets(budget_path)
    except (ConfigError, OSError) as err:
        print(f"repo_lint: config error: {err}", file=out)
        return 2

    relpaths = find_sources(root)
    if not relpaths:
        print(f"repo_lint: config error: no sources under {root}/src",
              file=out)
        return 2
    files = [SourceFile(root, rel) for rel in relpaths]

    violations = []
    check_transcendentals(files, allowlist, violations)
    check_service_budgets(files, budgets, violations)
    check_include_hygiene(files, violations)
    check_fault_injection_containment(files, violations)
    check_oracle_hook_containment(files, violations)
    check_file_io_containment(files, violations)
    check_intrinsics_containment(files, violations)
    check_framing_containment(files, violations)

    for rule, relpath, line, message in violations:
        print(f"{relpath}:{line}: [{rule}] {message}", file=out)
    if violations:
        print(f"repo_lint: {len(violations)} violation(s) in "
              f"{len(files)} files", file=out)
        return 1
    print(f"repo_lint: clean ({len(files)} files checked)", file=out)
    return 0


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True,
                        help="repository root (directory containing src/)")
    parser.add_argument("--allowlist",
                        default=os.path.join(here,
                                             "transcendental_allowlist.txt"))
    parser.add_argument("--budget",
                        default=os.path.join(here, "service_alloc_budget.txt"))
    args = parser.parse_args(argv)
    return run(args.root, args.allowlist, args.budget)


if __name__ == "__main__":
    sys.exit(main())
