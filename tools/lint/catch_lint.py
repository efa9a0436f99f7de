#!/usr/bin/env python3
"""catchsim-specific lint rules that generic tools cannot express.

The simulator's headline guarantees are bitwise determinism (any job
count, any machine) and paper-faithful bookkeeping. Both are easy to
break with one careless line — an unseeded RNG, a wall-clock read, a
stat emitted twice — that compiles fine and passes a lucky test run.
This linter enforces the repo contracts statically:

  determinism   no std::rand/srand/random_device, and no wall-clock or
                steady-clock reads, anywhere in src/. All randomness
                must flow through the seeded catchsim::Rng; simulated
                time is the only time.
  env-gateway   no direct std::getenv outside src/common/env.hh. The
                environment is not synchronised; reads funnel through
                the audited single-threaded-startup gateway.
  raw-new-delete no `new`/`delete` expressions in src/ outside the
                allow-list (`= delete` declarations are fine). Owning
                allocations use std::make_unique / containers.
  test-coverage every *.cc under src/ is referenced by the test suite:
                some file in tests/ includes the header it implements
                (same-stem .hh, else a same-directory .hh it includes).
                Untestable files need a waiver with a reason.
  stats-once    JSON stat keys are registered exactly once per object
                scope (tracks JsonWriter open/close/field/object call
                sequences; calls on JsonReader variables are reads and
                are skipped), so exports never silently shadow a
                counter.
  include-cc    no `#include "*.cc"` anywhere; translation units are
                composed by the build system, not textual inclusion.
  fatal-boundary library code in src/ never terminates the process on a
                recoverable error: no CATCHSIM_FATAL/CATCHSIM_PANIC,
                fatalAt/panicAt, or std::exit/abort outside the waived
                logging implementation. Recoverable failures return
                SimError/Expected (common/error.hh); CATCHSIM_ASSERT
                stays allowed for genuine invariant violations, and
                fatal() remains available at the CLI boundary (tools/,
                bench/), which this rule does not cover.
  step-alloc    the per-cycle hot loop never allocates: in the scoped
                files (src/core/ooo_core.cc, src/core/frontend.cc,
                src/cache/cache.cc) no container-growth or smart-pointer
                allocation call (push_back/emplace/insert/resize/
                reserve/assign, make_unique/make_shared) may appear
                outside constructors and the setup-time functions
                (bind*/rewind/reset*). Hot structures are sized once at
                construction; steady-state work reuses them. Waiverable
                for genuinely setup-only helpers.

Waivers:
  inline        append `// catch-lint: allow(<rule>)` to the line
  file-level    add `<rule> <repo-relative-path>  # reason` to
                tools/lint/waivers.txt

Exit status: 0 clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SRC_EXTS = {".cc", ".hh", ".cpp", ".hpp", ".h"}
LINT_TOPS = ("src", "tests", "bench", "tools", "examples")

INLINE_WAIVER_RE = re.compile(r"catch-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

DETERMINISM_BANNED = [
    (re.compile(r"\bstd::rand\b|[^_\w]s?rand\s*\("), "libc rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device (unseeded entropy)"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock/monotonic clock read"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
     "libc time read"),
    (re.compile(r"[^_\w]time\s*\(\s*(NULL|nullptr|0)\s*\)"), "time()"),
]

FATAL_BOUNDARY_BANNED = [
    (re.compile(r"\bCATCHSIM_(FATAL|PANIC)\b"),
     "CATCHSIM_FATAL/CATCHSIM_PANIC"),
    (re.compile(r"\b(fatalAt|panicAt|fatalImpl|panicImpl)\s*\("),
     "fatal/panic helper call"),
    (re.compile(r"\b(?:std::)?(exit|abort|_Exit|quick_exit)\s*\("),
     "process-terminating call"),
]

GETENV_RE = re.compile(r"\b(?:std::)?getenv\s*\(")
NEW_RE = re.compile(r"[^_\w]new\s+[A-Za-z_:<(]")
DELETE_RE = re.compile(r"[^_\w]delete(\s*\[\s*\])?\s+[A-Za-z_:(*]")
INCLUDE_CC_RE = re.compile(r'#\s*include\s*["<][^">]*\.cc[">]')
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')

WRITER_CALL_RE = re.compile(
    r"""[.\->]\s*(open|close|object|field|key)\s*\(\s*(?:"([^"]*)")?"""
)
# A JsonReader variable or parameter, and the receiver of a call.
READER_DECL_RE = re.compile(r"\bJsonReader\s*&?\s*(\w+)\s*[({,;)]")
RECEIVER_RE = re.compile(r"(\w+)\s*$")

# step-alloc: files whose steady-state member functions must not
# allocate. Constructors and the named setup-time functions may.
STEP_ALLOC_SCOPE = (
    "src/core/ooo_core.cc",
    "src/core/frontend.cc",
    "src/cache/cache.cc",
    "src/sim/fast_forward.cc",
    "src/common/blob_store.cc",
    "src/trace/chunk_store.cc",
    "src/sim/warm_state.cc",
)
STEP_ALLOC_SETUP_RE = re.compile(r"^(bind\w*|rewind|reset\w*)$")
STEP_ALLOC_RE = re.compile(
    r"[.\->]\s*(push_back|emplace_back|emplace|emplace_front|insert|"
    r"resize|reserve|assign|push_front)\s*\(|"
    r"\bmake_(?:unique|shared)\b")
# Function definitions in repo style: `Type` on its own line, then the
# qualified name at column 0 (`OooCore::step(...)` / free `helper(...)`).
FUNC_DEF_RE = re.compile(r"^(?:(\w+)::)?(~?\w+)\s*\(")


def _raw_string_end(text: str, i: int):
    """If text[i] is the opening quote of a raw string literal (the
    caller has already verified the R prefix), return (stop,
    terminated): stop is the index one past the closing quote (or
    len(text) when unterminated). Returns None when this is not a
    raw-string opener after all."""
    om = re.match(r'"([^()\\\s]{0,16})\(', text[i:i + 20])
    if not om:
        return None
    end = text.find(")" + om.group(1) + '"', i + len(om.group(0)))
    if end < 0:
        return len(text), False
    return end + len(om.group(1)) + 2, True


def strip_comments_and_strings(text: str) -> str:
    """Blank out comment and string-literal contents, preserving line
    structure, column offsets and the quotes themselves, so regexes
    never match inside either. Handles C++ raw string literals
    (`R"delim(...)delim"`, with optional u8/u/U/L prefixes): their
    contents — which may hold unbalanced quotes, `//`, or banned
    tokens — are blanked without desyncing the scanner. Inline lint
    waivers are extracted before this runs."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal?  The quote must be directly
                # preceded by an R prefix (R, LR, uR, UR, u8R) that is
                # itself not the tail of a longer identifier, and
                # followed by `delim(`.
                pm = re.search(r"(?:u8|[uUL])?R\Z", text[max(0, i - 3):i])
                pstart = (max(0, i - 3) + pm.start()) if pm else -1
                plain_prefix = pm and (
                    pstart == 0
                    or not re.match(r"\w", text[pstart - 1]))
                raw = _raw_string_end(text, i) if plain_prefix else None
                if raw is not None:
                    stop, terminated = raw
                    out.append('"')
                    body = text[i + 1:stop - 1] if terminated \
                        else text[i + 1:stop]
                    for ch in body:
                        out.append(ch if ch == "\n" else " ")
                    if terminated:
                        out.append('"')
                    i = stop
                    continue
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[tuple[Path, int, str, str]] = []
        self.file_waivers: dict[tuple[str, str], int] = {}
        self.new_delete_allow: dict[str, int] = {}
        # Usage tracking for --check-waivers: a waiver that no longer
        # suppresses any finding is stale and must be removed.
        self.used_file_waivers: set[tuple[str, str]] = set()
        self.used_allow: set[str] = set()
        self.declared_inline: set[tuple[str, int, str]] = set()
        self.used_inline: set[tuple[str, int, str]] = set()
        self._cur_rel = ""
        self._load_waivers()

    # -- waiver loading ------------------------------------------------

    def _load_waivers(self) -> None:
        wf = self.root / "tools" / "lint" / "waivers.txt"
        if wf.is_file():
            for lineno, raw in enumerate(wf.read_text().splitlines(), 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    print(f"catch_lint: malformed waiver line: {raw!r}",
                          file=sys.stderr)
                    sys.exit(2)
                self.file_waivers[(parts[0], parts[1])] = lineno
        af = self.root / "tools" / "lint" / "allow_raw_new.txt"
        if af.is_file():
            for lineno, raw in enumerate(af.read_text().splitlines(), 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    self.new_delete_allow[line] = lineno

    def waived(self, rule: str, rel: str, inline: dict[int, set[str]],
               lineno: int) -> bool:
        if (rule, rel) in self.file_waivers:
            self.used_file_waivers.add((rule, rel))
            return True
        if rule in inline.get(lineno, set()):
            self.used_inline.add((rel, lineno, rule))
            return True
        return False

    def report(self, path: Path, lineno: int, rule: str, msg: str) -> None:
        self.findings.append((path, lineno, rule, msg))

    # -- helpers -------------------------------------------------------

    def rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def iter_sources(self, *tops: str):
        fixture_dirs = (self.root / "tests" / "lint" / "fixtures",
                        self.root / "tests" / "analysis" / "fixtures")
        for top in tops:
            base = self.root / top
            if not base.is_dir():
                continue
            for p in sorted(base.rglob("*")):
                if p.suffix not in SRC_EXTS or not p.is_file():
                    continue
                # The lint/analysis test fixtures contain deliberate
                # violations; they are checked by their own --root runs.
                if any(d in p.parents for d in fixture_dirs):
                    continue
                yield p

    def inline_waivers(self, rel: str,
                       text: str) -> dict[int, set[str]]:
        waivers: dict[int, set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            m = INLINE_WAIVER_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                waivers.setdefault(lineno, set()).update(rules)
                for r in rules:
                    self.declared_inline.add((rel, lineno, r))
        return waivers

    # -- rules ---------------------------------------------------------

    def check_line_rules(self) -> None:
        for path in self.iter_sources(*LINT_TOPS):
            rel = self.rel(path)
            text = path.read_text(errors="replace")
            inline = self.inline_waivers(rel, text)
            code = strip_comments_and_strings(text)
            in_src = rel.startswith("src/")
            orig_lines = text.splitlines()
            for lineno, line in enumerate(code.splitlines(), 1):
                # Stripping blanks string contents; read the include
                # path from the original once the stripped line proves
                # the directive is real code (not inside a comment).
                if (re.match(r'\s*#\s*include', line)
                        and INCLUDE_CC_RE.search(orig_lines[lineno - 1])
                        and not self.waived("include-cc", rel, inline,
                                            lineno)):
                    self.report(path, lineno, "include-cc",
                                "never #include a .cc file")
                if not in_src:
                    continue
                for pat, what in DETERMINISM_BANNED:
                    if pat.search(line) and not self.waived(
                            "determinism", rel, inline, lineno):
                        self.report(
                            path, lineno, "determinism",
                            f"{what} breaks bitwise reproducibility; "
                            "use the seeded catchsim::Rng / simulated "
                            "time")
                for pat, what in FATAL_BOUNDARY_BANNED:
                    if (pat.search(line)
                            and "CATCHSIM_ASSERT" not in line
                            and not self.waived("fatal-boundary", rel,
                                                inline, lineno)):
                        self.report(
                            path, lineno, "fatal-boundary",
                            f"{what} in library code; return a "
                            "SimError/Expected (common/error.hh) and "
                            "let the isolation layer or the CLI "
                            "boundary decide")
                if (GETENV_RE.search(line)
                        and rel != "src/common/env.hh"
                        and not self.waived("env-gateway", rel, inline,
                                            lineno)):
                    self.report(path, lineno, "env-gateway",
                                "read CATCH_* knobs via common/env.hh, "
                                "not raw std::getenv")
                stripped = line
                no_deleted_fn = re.sub(r"=\s*delete", "", stripped)
                hit_new = (NEW_RE.search(f" {stripped}")
                           and "= delete" not in stripped)
                hit_delete = DELETE_RE.search(f" {no_deleted_fn}")
                if (hit_new or hit_delete) \
                        and rel in self.new_delete_allow:
                    self.used_allow.add(rel)
                elif hit_new and not self.waived("raw-new-delete", rel,
                                                 inline, lineno):
                    self.report(path, lineno, "raw-new-delete",
                                "raw new expression; use "
                                "std::make_unique or a container")
                elif hit_delete and not self.waived("raw-new-delete",
                                                    rel, inline, lineno):
                    self.report(path, lineno, "raw-new-delete",
                                "raw delete expression; owning "
                                "pointers must be smart pointers")

    def check_step_alloc(self) -> None:
        """Hot-loop allocation freedom for the scoped per-cycle files.
        Tracks the enclosing function using the repo's definition style
        (qualified name at column 0); allocation-capable calls are
        banned outside constructors/destructors and setup functions."""
        for rel in STEP_ALLOC_SCOPE:
            path = self.root / rel
            if not path.is_file():
                continue
            text = path.read_text(errors="replace")
            inline = self.inline_waivers(rel, text)
            code = strip_comments_and_strings(text)
            func = None
            klass = None
            for lineno, line in enumerate(code.splitlines(), 1):
                m = FUNC_DEF_RE.match(line)
                if m and line[:1] not in (" ", "\t"):
                    klass, func = m.group(1), m.group(2)
                am = STEP_ALLOC_RE.search(line)
                if not am or func is None:
                    continue
                if func == klass or func.startswith("~"):
                    continue  # construction/teardown may size containers
                if STEP_ALLOC_SETUP_RE.match(func):
                    continue
                if self.waived("step-alloc", rel, inline, lineno):
                    continue
                what = am.group(1) or "make_unique/make_shared"
                self.report(
                    path, lineno, "step-alloc",
                    f"{what} in {func}() — the per-cycle path must not "
                    "allocate; size hot structures in the constructor "
                    "and reuse them (waiverable for setup-only "
                    "helpers)")

    def check_stats_once(self) -> None:
        """JSON stat registration: within one writer object scope a key
        may appear only once. Tracks `.open()`, `.close()`,
        `.object("k")`, `.field("k", ...)` call sequences per file."""
        for path in self.iter_sources("src"):
            rel = self.rel(path)
            text = path.read_text(errors="replace")
            inline = self.inline_waivers(rel, text)
            code = strip_comments_and_strings(text)
            # Call sites only: require an object expression before the
            # dot so the JsonWriter class definition itself is ignored.
            # JsonReader shares the visitor method names, but a read
            # registers nothing: calls on declared readers are skipped.
            readers = set(READER_DECL_RE.findall(code))
            stack: list[set[str]] = []
            orig_lines = text.splitlines()
            for lineno, line in enumerate(code.splitlines(), 1):
                for m in WRITER_CALL_RE.finditer(line):
                    recv = RECEIVER_RE.search(line[:m.start()].rstrip("-"))
                    if recv and recv.group(1) in readers:
                        continue
                    call = m.group(1)
                    # Stripping blanks string contents but preserves
                    # offsets; recover the real key from the original.
                    om = WRITER_CALL_RE.match(
                        orig_lines[lineno - 1], m.start())
                    key = om.group(2) if om else m.group(2)
                    if call == "open":
                        stack.append(set())
                    elif call == "close":
                        if stack:
                            stack.pop()
                    elif call in ("object", "field", "key"):
                        if key is None:
                            continue
                        if not stack:
                            stack.append(set())
                        if key in stack[-1]:
                            if not self.waived("stats-once", rel, inline,
                                               lineno):
                                self.report(
                                    path, lineno, "stats-once",
                                    f'stat "{key}" registered twice in '
                                    "the same JSON object scope")
                        else:
                            stack[-1].add(key)
                        if call == "object":
                            stack.append(set())

    def check_test_coverage(self) -> None:
        src = self.root / "src"
        tests = self.root / "tests"
        if not src.is_dir() or not tests.is_dir():
            return
        test_includes: set[str] = set()
        for t in self.iter_sources("tests"):
            for m in INCLUDE_RE.finditer(t.read_text(errors="replace")):
                test_includes.add(m.group(1))
        for cc in sorted(src.rglob("*.cc")):
            rel = self.rel(cc)
            candidates = set()
            hh = cc.with_suffix(".hh")
            if hh.is_file():
                candidates.add(hh.relative_to(src).as_posix())
            else:
                # Implementation-only TU: any same-directory header it
                # includes counts as its public surface.
                for m in INCLUDE_RE.finditer(
                        cc.read_text(errors="replace")):
                    inc = m.group(1)
                    if (src / inc).is_file() and Path(inc).parent == \
                            cc.parent.relative_to(src):
                        candidates.add(inc)
            # Consult the waiver only for genuinely uncovered files, so
            # a waiver on a file that gained a test reads as stale.
            if not candidates & test_includes and \
                    not self.waived("test-coverage", rel, {}, 0):
                self.report(
                    cc, 1, "test-coverage",
                    "no test includes "
                    + (", ".join(sorted(candidates)) or "any header")
                    + " — add a test or a waiver with a reason in "
                    "tools/lint/waivers.txt")

    def check_waivers(self) -> None:
        """Stale-waiver detection (--check-waivers): every file-level
        waiver, allow_raw_new entry and inline `catch-lint: allow(...)`
        must still suppress at least one finding; otherwise it hides
        nothing and must be removed before it masks a future
        regression."""
        wf = "tools/lint/waivers.txt"
        for (rule, rel), lineno in sorted(self.file_waivers.items(),
                                          key=lambda kv: kv[1]):
            if (rule, rel) not in self.used_file_waivers:
                self.report(self.root / wf, lineno, "unused-waiver",
                            f"file waiver '{rule} {rel}' no longer "
                            "suppresses any finding; remove it")
        for rel, lineno in sorted(self.new_delete_allow.items(),
                                  key=lambda kv: kv[1]):
            if rel not in self.used_allow:
                self.report(self.root / "tools/lint/allow_raw_new.txt",
                            lineno, "unused-waiver",
                            f"allow_raw_new entry '{rel}' matches no "
                            "new/delete expression; remove it")
        for rel, lineno, rule in sorted(self.declared_inline):
            if (rel, lineno, rule) not in self.used_inline:
                self.report(self.root / rel, lineno, "unused-waiver",
                            f"inline waiver allow({rule}) suppresses "
                            "nothing on this line; remove it")

    # -- driver --------------------------------------------------------

    def run(self, check_waivers: bool = False) -> int:
        self.check_line_rules()
        self.check_step_alloc()
        self.check_stats_once()
        self.check_test_coverage()
        if check_waivers:
            self.check_waivers()
        for path, lineno, rule, msg in sorted(
                self.findings, key=lambda f: (str(f[0]), f[1])):
            print(f"{self.rel(path)}:{lineno}: [{rule}] {msg}")
        if self.findings:
            print(f"catch_lint: {len(self.findings)} finding(s)",
                  file=sys.stderr)
            return 1
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="repo root to lint (default: this checkout)")
    ap.add_argument("--check-waivers", action="store_true",
                    help="also fail on waivers that no longer suppress "
                         "any finding")
    args = ap.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"catch_lint: {root} has no src/ directory", file=sys.stderr)
        return 2
    return Linter(root).run(check_waivers=args.check_waivers)


if __name__ == "__main__":
    sys.exit(main())
