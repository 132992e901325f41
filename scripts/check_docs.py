#!/usr/bin/env python3
"""Keeps the docs from rotting. Nine checks, run in CI:

1. Every bench binary (bench/bench_*.cc) must appear in the README's
   figure tables, and every committed BENCH_*.json trajectory file must
   be named there too, so new figures cannot land undocumented.
2. Every intra-repo markdown link ([text](path), non-http, non-anchor)
   in the repo's markdown files must resolve to an existing file or
   directory.
3. docs/FORMAT.md's encoding-tag table must match the Encoding enum in
   src/format/encoding.h exactly (same names, same values), so the
   on-disk spec cannot silently drift from the code.
4. Every TPC-H query the workload declares (TpchQ<N> in
   src/workload/tpch.h) must have a row in the README's TPC-H coverage
   matrix, and every matrix row must name a declared query, so the
   matrix can neither lag behind nor overstate the implementation.
5. docs/OBSERVABILITY.md's metric-name registry table must match the
   declaration table in src/obs/metrics.cc exactly (same names, same
   types, both directions), so the documented observability surface
   cannot drift from the code.
6. docs/SERVING.md must name every serving-surface metric declared in
   src/obs/metrics.cc (the meta_cache.*, shared_scan.*, and serving.*
   families) in backticks, and every backticked name in those families
   must be declared, so the serving doc cannot drift from the code.
7. docs/OBSERVABILITY.md's span table must match the spans src opens:
   every (cat, name) passed to obs::Begin, cloud::EnvSpan or
   Tracer::BeginSpan needs a row, and every row must name a span the
   code opens. A cat or name passed in through a parameter is read from
   the string literals at that function's call sites (the scan
   pipeline's phase label is `scan` or `scan-build`); any other argument
   is an error, so the taxonomy cannot drift from the code.
8. The "Download concurrency" paragraph of docs/ARCHITECTURE.md must
   state the scan's constants from src/engine/scan.cc, each in its own
   phrase: extents per row group fetched at once
   (kColumnFetchParallelism), row groups downloading at once
   (kRowGroupParallelism), row groups between start and emit
   (kRowGroupResidency) and the coalescing budget in MiB
   (kCoalesceGapBytes), so a retuned constant cannot leave the
   documented concurrency behind.
9. The README's module map must have a `src/<dir>` row for every
   directory directly under src/, and every src/... path its rows name
   (brace sets like `fault.{h,cc}` expanded) must exist, so a module can
   neither land unmapped nor leave a row behind when it goes.

Exit code: 0 when clean, 1 with one line per violation otherwise.

Usage: scripts/check_docs.py [repo-root]
"""

import glob
import os
import re
import sys

# Markdown files to scan for links; build trees and vendored dirs are not
# documentation.
SKIP_DIRS = {"build", "build-tsan", ".git", ".claude"}

# [text](target) — excluding images is unnecessary (same resolution rule).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files(root):
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in filenames:
            if name.endswith(".md"):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def check_bench_rows(root, errors):
    readme_path = os.path.join(root, "README.md")
    try:
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    except OSError as e:
        errors.append(f"README.md: unreadable ({e})")
        return
    for src in sorted(glob.glob(os.path.join(root, "bench", "bench_*.cc"))):
        name = os.path.splitext(os.path.basename(src))[0]
        if name == "bench_main":
            continue  # The shared JSON reporter, not a bench binary.
        if f"`{name}`" not in readme:
            errors.append(
                f"README.md: bench binary {name} has no figure-table row "
                f"(add `| ... | `{name}` | BENCH_*.json |`)")
    # The committed trajectory files are the repo's perf record; each one
    # must be documented alongside the binary that produces it.
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)
        if f"`{name}`" not in readme:
            errors.append(
                f"README.md: trajectory file {name} is committed but never "
                f"mentioned (add it to the figure table)")


def check_links(root, errors):
    for md in markdown_files(root):
        rel_md = os.path.relpath(md, root)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if re.match(r"^[a-z]+:", target):  # http:, https:, mailto: ...
                continue
            path = target.split("#", 1)[0]
            if not path:  # Pure anchor.
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(md),
                                                     path))
            if not os.path.exists(resolved):
                errors.append(f"{rel_md}: broken link -> {target}")


# `kName = N,` entries inside the `enum class Encoding` block.
ENUM_ENTRY_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,", re.MULTILINE)
# FORMAT.md encoding-table rows: `| 0   | `kPlain` | ... |`.
DOC_TAG_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`(k\w+)`", re.MULTILINE)


def check_encoding_tags(root, errors):
    header_path = os.path.join(root, "src", "format", "encoding.h")
    doc_path = os.path.join(root, "docs", "FORMAT.md")
    try:
        with open(header_path, encoding="utf-8") as f:
            header = f.read()
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    except OSError as e:
        errors.append(f"encoding tag check: unreadable input ({e})")
        return
    enum_match = re.search(r"enum class Encoding[^{]*\{(.*?)\};", header,
                           re.DOTALL)
    if not enum_match:
        errors.append("src/format/encoding.h: Encoding enum not found")
        return
    enum_tags = {name: int(value)
                 for name, value in ENUM_ENTRY_RE.findall(enum_match.group(1))}
    if not enum_tags:
        errors.append("src/format/encoding.h: Encoding enum has no entries")
        return
    # The doc's value-encoding table lists `| value | `kName` |` rows; codec
    # rows reuse names like `kRle`, so compare (value, name) pairs from the
    # section between the "Value encodings" and "Compression" headings.
    section = doc.split("## Value encodings", 1)
    section = section[1].split("## Compression", 1)[0] if len(section) == 2 \
        else ""
    doc_tags = {name: int(value)
                for value, name in DOC_TAG_ROW_RE.findall(section)}
    for name, value in sorted(enum_tags.items(), key=lambda kv: kv[1]):
        if name not in doc_tags:
            errors.append(
                f"docs/FORMAT.md: encoding tag {name} (= {value}) missing "
                f"from the value-encodings table")
        elif doc_tags[name] != value:
            errors.append(
                f"docs/FORMAT.md: encoding tag {name} documented as "
                f"{doc_tags[name]} but the enum says {value}")
    for name in sorted(doc_tags):
        if name not in enum_tags:
            errors.append(
                f"docs/FORMAT.md: encoding tag {name} documented but not in "
                f"src/format/encoding.h")


# `core::Query TpchQ3(` declarations in the workload header.
TPCH_DECL_RE = re.compile(r"core::Query\s+TpchQ(\d+)\s*\(")
# Coverage-matrix rows: `| Q12 (shipping modes) | ... |`.
TPCH_ROW_RE = re.compile(r"^\|\s*Q(\d+)\b", re.MULTILINE)


def check_tpch_matrix(root, errors):
    header_path = os.path.join(root, "src", "workload", "tpch.h")
    readme_path = os.path.join(root, "README.md")
    try:
        with open(header_path, encoding="utf-8") as f:
            header = f.read()
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    except OSError as e:
        errors.append(f"tpch matrix check: unreadable input ({e})")
        return
    declared = set(TPCH_DECL_RE.findall(header))
    if not declared:
        errors.append("src/workload/tpch.h: no TpchQ<N> declarations found")
        return
    section = readme.split("## TPC-H coverage", 1)
    if len(section) != 2:
        errors.append("README.md: '## TPC-H coverage' section not found")
        return
    body = section[1].split("\n## ", 1)[0]
    documented = set(TPCH_ROW_RE.findall(body))
    for q in sorted(declared - documented, key=int):
        errors.append(
            f"README.md: TpchQ{q} is implemented (src/workload/tpch.h) but "
            f"has no row in the TPC-H coverage matrix")
    for q in sorted(documented - declared, key=int):
        errors.append(
            f"README.md: the TPC-H coverage matrix lists Q{q} but "
            f"src/workload/tpch.h declares no TpchQ{q}")


# metrics.cc declaration-table entries keep id, name, and type on one line:
# `{Metric::kRowsScanned, "scan.rows_scanned", MetricType::kCounter,`.
METRIC_DECL_RE = re.compile(
    r"\{Metric::k\w+,\s*\"([\w.]+)\",\s*MetricType::k(\w+),")
# OBSERVABILITY.md registry rows: `| `scan.rows_scanned` | counter | ... |`.
METRIC_DOC_ROW_RE = re.compile(
    r"^\|\s*`([\w.]+)`\s*\|\s*(counter|gauge|histogram)\s*\|", re.MULTILINE)


def check_metric_registry(root, errors):
    src_path = os.path.join(root, "src", "obs", "metrics.cc")
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    try:
        with open(src_path, encoding="utf-8") as f:
            src = f.read()
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    except OSError as e:
        errors.append(f"metric registry check: unreadable input ({e})")
        return
    declared = {name: mtype.lower()
                for name, mtype in METRIC_DECL_RE.findall(src)}
    if not declared:
        errors.append("src/obs/metrics.cc: no metric declarations found")
        return
    section = doc.split("## Metric name registry", 1)
    body = section[1].split("\n## ", 1)[0] if len(section) == 2 else ""
    documented = dict(METRIC_DOC_ROW_RE.findall(body))
    if not documented:
        errors.append(
            "docs/OBSERVABILITY.md: '## Metric name registry' table not found")
        return
    for name in sorted(set(declared) - set(documented)):
        errors.append(
            f"docs/OBSERVABILITY.md: metric {name} is declared "
            f"(src/obs/metrics.cc) but missing from the registry table")
    for name in sorted(set(documented) - set(declared)):
        errors.append(
            f"docs/OBSERVABILITY.md: metric {name} is documented but "
            f"src/obs/metrics.cc declares no such metric")
    for name in sorted(set(declared) & set(documented)):
        if declared[name] != documented[name]:
            errors.append(
                f"docs/OBSERVABILITY.md: metric {name} documented as "
                f"{documented[name]} but declared as {declared[name]}")


# The serving-surface metric families SERVING.md must stay in sync with.
SERVING_METRIC_PREFIXES = ("meta_cache.", "shared_scan.", "serving.")
# Backticked dotted names in SERVING.md prose: `meta_cache.hits`.
SERVING_DOC_NAME_RE = re.compile(r"`([a-z_]+\.[a-z_.]+)`")


def check_serving_metrics(root, errors):
    src_path = os.path.join(root, "src", "obs", "metrics.cc")
    doc_path = os.path.join(root, "docs", "SERVING.md")
    try:
        with open(src_path, encoding="utf-8") as f:
            src = f.read()
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    except OSError as e:
        errors.append(f"serving metric check: unreadable input ({e})")
        return
    declared = {name for name, _ in METRIC_DECL_RE.findall(src)
                if name.startswith(SERVING_METRIC_PREFIXES)}
    if not declared:
        errors.append(
            "src/obs/metrics.cc: no serving-surface metrics declared "
            "(expected meta_cache.*/shared_scan.*/serving.* entries)")
        return
    documented = {name for name in SERVING_DOC_NAME_RE.findall(doc)
                  if name.startswith(SERVING_METRIC_PREFIXES)}
    for name in sorted(declared - documented):
        errors.append(
            f"docs/SERVING.md: metric {name} is declared "
            f"(src/obs/metrics.cc) but never named in the serving doc")
    for name in sorted(documented - declared):
        errors.append(
            f"docs/SERVING.md: metric {name} is named but "
            f"src/obs/metrics.cc declares no such metric")


# Span-opening calls, each with the argument position of its cat (the
# name follows): obs::Begin(tracer, parent, cat, name), cloud::EnvSpan
# var(&env, cat, name) and tracer->BeginSpan(parent, cat, name).
SPAN_CALLS = (
    (re.compile(r"\bobs::Begin\("), 2),
    (re.compile(r"\bEnvSpan\s+\w+\("), 1),
    (re.compile(r"\bBeginSpan\("), 1),
)
# A declared parameter, `std::string name` or `const char* phase_label`.
PARAM_DECL_RE = re.compile(r"[\w*&>]\s+[*&]?(\w+)\s*(=.*)?$")
# A function definition: name, parameter list, opening brace.
FUNC_DEF_RE = re.compile(r"\b(\w+)\s*\(([^()]*)\)\s*(?:const\s*)?\{")
# Span-table rows: `| `scan` | `scan`, `scan-build` | parent | args |`.
SPAN_ROW_RE = re.compile(r"^\|\s*`([\w-]+)`\s*\|([^|]*)\|", re.MULTILINE)


def split_args(text, open_pos):
    """Splits the call arguments starting after the '(' at open_pos."""
    args, depth, start, i = [], 0, open_pos + 1, open_pos + 1
    in_str = False
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_str = False
        elif ch == '"':
            in_str = True
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                args.append(text[start:i].strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(text[start:i].strip())
            start = i + 1
        i += 1
    return args


def param_index(params, ident):
    """Position of parameter `ident` in a parameter list, or None."""
    for i, p in enumerate(split_args("(" + params + ")", 0)):
        m = PARAM_DECL_RE.search(p)
        if m and m.group(1) == ident:
            return i
    return None


def resolve_span_arg(root, sources, path, pos, arg, errors):
    """The values one span argument takes: a literal's own, or a
    parameter's literals at every call site of its function in src."""
    if arg.startswith('"'):
        return {arg[1:-1]}
    where = os.path.relpath(path, root)
    if not re.fullmatch(r"[A-Za-z_]\w*", arg):
        errors.append(f"{where}: span argument `{arg}` is neither a literal "
                      f"nor a parameter")
        return set()
    func, index = None, None
    for m in FUNC_DEF_RE.finditer(sources[path], 0, pos):
        i = param_index(m.group(2), arg)
        if i is not None:
            func, index = m.group(1), i  # The innermost one wins.
    if func is None:
        errors.append(f"{where}: span argument `{arg}` is neither a literal "
                      f"nor a parameter of the enclosing function")
        return set()
    values = set()
    for other_path, other in sorted(sources.items()):
        for call in re.finditer(r"\b" + func + r"\s*\(", other):
            args = split_args(other, call.end() - 1)
            if index >= len(args) or param_index(", ".join(args), arg) \
                    is not None:
                continue  # The definition or a declaration.
            if not args[index].startswith('"'):
                errors.append(
                    f"{os.path.relpath(other_path, root)}: {func}() passes "
                    f"span argument `{arg}` as `{args[index]}`, not a "
                    f"string literal")
                continue
            values.add(args[index][1:-1])
    if not values:
        errors.append(f"{where}: no call site of {func}() names span "
                      f"argument `{arg}`")
    return values


def check_span_table(root, errors):
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    try:
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    except OSError as e:
        errors.append(f"span table check: unreadable input ({e})")
        return
    sources = {}
    for pattern in ("*.h", "*.cc"):
        for path in glob.glob(os.path.join(root, "src", "**", pattern),
                              recursive=True):
            with open(path, encoding="utf-8") as f:
                sources[path] = f.read()
    opened = {}  # (cat, name) -> first source file opening it.
    for path, text in sorted(sources.items()):
        for regex, first in SPAN_CALLS:
            for m in regex.finditer(text):
                pair = split_args(text, m.end() - 1)[first:first + 2]
                if len(pair) != 2 or any(PARAM_DECL_RE.search(a)
                                         for a in pair):
                    continue  # A declaration or a definition.
                if all(a.startswith("std::move(") for a in pair):
                    continue  # A wrapper, checked at its own call sites.
                cats = resolve_span_arg(root, sources, path, m.start(),
                                        pair[0], errors)
                names = resolve_span_arg(root, sources, path, m.start(),
                                         pair[1], errors)
                for cat in cats:
                    for name in names:
                        opened.setdefault((cat, name),
                                          os.path.relpath(path, root))
    if not opened:
        errors.append("src: no span-opening calls found")
        return
    section = doc.split("## Span taxonomy", 1)
    body = section[1].split("\n## ", 1)[0] if len(section) == 2 else ""
    documented = set()
    for cat, names in SPAN_ROW_RE.findall(body):
        for name in re.findall(r"`([\w-]+)`", names):
            documented.add((cat, name))
    if not documented:
        errors.append("docs/OBSERVABILITY.md: '## Span taxonomy' table not "
                      "found")
        return
    for cat, name in sorted(set(opened) - documented):
        errors.append(
            f"docs/OBSERVABILITY.md: span {cat}/{name} is opened "
            f"({opened[(cat, name)]}) but missing from the span table")
    for cat, name in sorted(documented - set(opened)):
        errors.append(
            f"docs/OBSERVABILITY.md: span {cat}/{name} is documented but "
            f"src opens no such span")


# scan.cc constants: `constexpr int kName = <expr>;` at the start of a line.
# Only those whose value is a product of literals and earlier constants
# are read; the checked four all are.
SCAN_CONST_RE = re.compile(r"^constexpr\s+\w+\s+(k\w+)\s*=\s*([^;]+);",
                           re.MULTILINE)
# The paragraph of ARCHITECTURE.md that states the scan's concurrency.
DOWNLOAD_PARA_RE = re.compile(
    r"^\*\*Download concurrency\.\*\*(.*?)(?:\n\s*\n|\Z)",
    re.MULTILINE | re.DOTALL)
# Each constant, the phrase of that paragraph stating it, and the unit of
# the phrase's number in the constant's unit.
SCAN_DOC_PHRASES = (
    ("kColumnFetchParallelism", r"\(2\) up to (\d+) extents", 1),
    ("kRowGroupParallelism", r"\(3\) up to (\d+) row groups", 1),
    ("kRowGroupResidency", r"at most (\d+) row groups", 1),
    ("kCoalesceGapBytes", r"at (\d+) MiB of modeled bytes", 1024 * 1024),
)


def eval_const(expr, known):
    """A product of integer literals and known constants, or None when the
    expression is anything else."""
    product = 1
    for factor in expr.split("*"):
        factor = factor.strip()
        if re.fullmatch(r"\d+", factor):
            product *= int(factor)
        elif factor in known:
            product *= known[factor]
        else:
            return None
    return product


def check_scan_concurrency(root, errors):
    src_path = os.path.join(root, "src", "engine", "scan.cc")
    doc_path = os.path.join(root, "docs", "ARCHITECTURE.md")
    try:
        with open(src_path, encoding="utf-8") as f:
            src = f.read()
        with open(doc_path, encoding="utf-8") as f:
            doc = f.read()
    except OSError as e:
        errors.append(f"scan concurrency check: unreadable input ({e})")
        return
    known = {}
    for name, expr in SCAN_CONST_RE.findall(src):
        value = eval_const(expr, known)
        if value is not None:
            known[name] = value
    para = DOWNLOAD_PARA_RE.search(doc)
    if para is None:
        errors.append("docs/ARCHITECTURE.md: no '**Download concurrency.**' "
                      "paragraph")
        return
    text = " ".join(para.group(1).split())  # Phrases may wrap lines.
    for name, phrase, unit in SCAN_DOC_PHRASES:
        if name not in known:
            errors.append(f"src/engine/scan.cc: no constexpr {name} with a "
                          f"constant integer value")
            continue
        stated = re.findall(phrase, text)
        if len(stated) != 1:
            errors.append(
                f"docs/ARCHITECTURE.md: the Download concurrency paragraph "
                f"must state {name} once, as '{phrase}' (found "
                f"{len(stated)})")
        elif int(stated[0]) * unit != known[name]:
            errors.append(
                f"docs/ARCHITECTURE.md: the Download concurrency paragraph "
                f"states {int(stated[0]) * unit} for {name}, but "
                f"src/engine/scan.cc has {known[name]}")


# Module-map rows: `| `src/cloud/fault.{h,cc}` | ... |`.
MODULE_ROW_RE = re.compile(r"^\|\s*`(src/[^`]*)`\s*\|", re.MULTILINE)


def expand_braces(path):
    """Every path a `{a,b}` brace set in `path` stands for."""
    m = re.search(r"\{([^{}]*)\}", path)
    if m is None:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(path[:m.start()] + alt + path[m.end():]))
    return out


def check_module_map(root, errors):
    readme_path = os.path.join(root, "README.md")
    try:
        with open(readme_path, encoding="utf-8") as f:
            readme = f.read()
    except OSError as e:
        errors.append(f"module map check: unreadable input ({e})")
        return
    section = readme.split("## Module map", 1)
    body = section[1].split("\n## ", 1)[0] if len(section) == 2 else ""
    rows = MODULE_ROW_RE.findall(body)
    if not rows:
        errors.append("README.md: '## Module map' table not found")
        return
    for row in rows:
        for path in expand_braces(row):
            if not os.path.exists(os.path.join(root, path)):
                errors.append(f"README.md: module map row `{row}` names "
                              f"{path}, which does not exist")
    src = os.path.join(root, "src")
    for name in sorted(os.listdir(src)):
        if os.path.isdir(os.path.join(src, name)) and \
                f"src/{name}" not in rows:
            errors.append(f"README.md: src/{name} has no module map row")


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir))
    errors = []
    check_bench_rows(root, errors)
    check_links(root, errors)
    check_encoding_tags(root, errors)
    check_tpch_matrix(root, errors)
    check_metric_registry(root, errors)
    check_serving_metrics(root, errors)
    check_span_table(root, errors)
    check_scan_concurrency(root, errors)
    check_module_map(root, errors)
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    if errors:
        return 1
    print("check_docs: README bench rows, trajectory files, markdown links, "
          "encoding tags, the TPC-H matrix, the metric registry, the "
          "serving metric names, the span table, the scan's concurrency "
          "constants, and the module map are clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
