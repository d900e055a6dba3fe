#!/usr/bin/env python3
"""Docs lint: dead links, phantom bench targets, phantom metrics,
endpoint-table drift, CI bench-table drift.

Five checks, all offline (CI must not depend on the network):

1. Dead intra-repo links. Scans the repo's top-level markdown plus
   docs/*.md for inline links [text](target) and checks every relative
   target (after stripping any #anchor) against the working tree.
   External links (http/https/mailto) are ignored.
2. Phantom bench targets. Every `bench_eNN_*` / `bench_aNN_*` name
   mentioned in EXPERIMENTS.md must be an add_executable target in
   bench/CMakeLists.txt — an experiment doc that names a harness that
   does not build is a dead reproduction recipe.
3. Phantom metrics. Every backticked `confcall_*` metric name in
   docs/OBSERVABILITY.md must appear as a quoted string literal
   ("confcall_...") under src/ or tools/, where families are
   registered — the catalogue may not describe series nothing can
   emit. A mention in a test or a bench does not count: a stale
   assertion must not keep a deleted family's row alive. Names of
   CMake targets (`confcall_serve`, `confcall_plan`, ...) are not
   metrics and are skipped. (tests/test_observability.cpp gates the
   opposite direction: every emitted metric must be catalogued.)
4. Endpoint-table drift, both directions. Every route registered with
   server.handle("METHOD", "/path") in src/support/http.cpp or
   src/cellular/serving_node.cpp (the daemon's routes; its member is
   server_) must have a row in docs/OBSERVABILITY.md's
   Endpoints table, and every `METHOD /path` row in that table must be
   registered by one of those files — the endpoint catalogue may
   neither lag the server nor promise routes that 404.
5. CI bench-table drift, both directions. Every row of
   bench/ci_benches.txt (the JSON benches CI smoke-runs and compares)
   must name a target declared in bench/CMakeLists.txt, and that
   bench's EXPERIMENTS.md section must name its BENCH_EXX.json and each
   of its strict paths; every BENCH_EXX.json EXPERIMENTS.md mentions
   must have a row — a documented bench record CI never checks is a
   silent gap.

Exit code 1 lists every violation as file:line.

Usage: python3 tools/docs_lint.py [repo_root]
"""
import glob
import os
import re
import sys

# Inline links, excluding images; the target group stops at the first
# unescaped ')' (no nested-paren targets in this repo).
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")

BENCH_TARGET_RE = re.compile(r"\b(bench_[ea]\d{2}_[a-z0-9_]+)\b")
# A catalogued metric: a backticked name with the confcall_ prefix.
# Label-carrying rows (`name{label="v"}`) contribute the name prefix.
METRIC_RE = re.compile(r"`(confcall_[a-z0-9_]+)[`{]")
# Where metric families are registered, by quoted name.
REGISTRY_DIRS = ("src", "tools")
SOURCE_EXTS = (".h", ".cpp", ".cc", ".py")
# A CMake target named like a metric: add_executable(confcall_serve ...).
CMAKE_TARGET_RE = re.compile(
    r"add_(?:executable|library)\(\s*(confcall_[a-z0-9_]+)")


def lint_links(path, root):
    errors = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            for target in LINK_RE.findall(line):
                if target.startswith(EXTERNAL) or target.startswith("#"):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target.split("#")[0]))
                if not os.path.exists(resolved):
                    errors.append("%s:%d: dead link -> %s" %
                                  (os.path.relpath(path, root), lineno, target))
    return errors


def cmake_bench_targets(root):
    """add_executable names declared by bench/CMakeLists.txt (both the
    foreach list and standalone add_executable calls)."""
    path = os.path.join(root, "bench", "CMakeLists.txt")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as handle:
        return set(BENCH_TARGET_RE.findall(handle.read()))


def lint_bench_targets(root):
    """Check 2: EXPERIMENTS.md may only name bench targets that build."""
    path = os.path.join(root, "EXPERIMENTS.md")
    if not os.path.exists(path):
        return []
    declared = cmake_bench_targets(root)
    errors = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            for target in BENCH_TARGET_RE.findall(line):
                if target not in declared:
                    errors.append(
                        "%s:%d: bench target '%s' is not declared in "
                        "bench/CMakeLists.txt" %
                        (os.path.relpath(path, root), lineno, target))
    return errors


def source_tree_text(root):
    chunks = []
    for subdir in REGISTRY_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, subdir)):
            for name in filenames:
                if name.endswith(SOURCE_EXTS):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8", errors="replace") as handle:
                        chunks.append(handle.read())
    return "\n".join(chunks)


def cmake_targets(root):
    """confcall_* targets the CMakeLists.txt files under src/ and tools/
    declare."""
    targets = set()
    for subdir in REGISTRY_DIRS:
        for path in glob.glob(os.path.join(root, subdir, "**",
                                           "CMakeLists.txt"), recursive=True):
            with open(path, encoding="utf-8") as handle:
                targets.update(CMAKE_TARGET_RE.findall(handle.read()))
    return targets


def lint_metric_catalogue(root):
    """Check 3: every metric docs/OBSERVABILITY.md catalogues must be
    emittable — its name must be a quoted literal where families are
    registered."""
    path = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.exists(path):
        return []
    source = source_tree_text(root)
    targets = cmake_targets(root)
    errors = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            for metric in METRIC_RE.findall(line):
                if metric not in targets and '"%s"' % metric not in source:
                    errors.append(
                        "%s:%d: metric '%s' is catalogued but no quoted "
                        "\"%s\" appears under %s" %
                        (os.path.relpath(path, root), lineno, metric, metric,
                         "/".join(REGISTRY_DIRS)))
    return errors


# A registered route: method + literal path in one handle() call.
ROUTE_HANDLE_RE = re.compile(
    r'server_?\.handle\("(GET|POST)",\s*"(/[A-Za-z0-9_]+)"')
# A documented route: a backticked `METHOD /path` inside a table row.
DOC_ROUTE_RE = re.compile(r"`(GET|POST) (/[A-Za-z0-9_]+)`")
ROUTE_SOURCES = (os.path.join("src", "support", "http.cpp"),
                 os.path.join("src", "cellular", "serving_node.cpp"))


def lint_endpoints(root):
    """Check 4: docs/OBSERVABILITY.md's Endpoints table and the routes
    the server registers must agree, both directions."""
    doc_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    if not os.path.exists(doc_path):
        return []
    routed = {}
    for rel in ROUTE_SOURCES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                for method, route in ROUTE_HANDLE_RE.findall(line):
                    routed.setdefault((method, route),
                                      "%s:%d" % (rel, lineno))
    documented = {}
    in_endpoints = False
    with open(doc_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.startswith("## "):
                in_endpoints = line.strip() == "## Endpoints"
            if in_endpoints and line.startswith("| `"):
                for method, route in DOC_ROUTE_RE.findall(line):
                    documented.setdefault((method, route), lineno)
    errors = []
    rel_doc = os.path.relpath(doc_path, root)
    for key in sorted(routed):
        if key not in documented:
            errors.append(
                "%s: route '%s %s' (registered at %s) has no row in the "
                "Endpoints table" % (rel_doc, key[0], key[1], routed[key]))
    for key in sorted(documented):
        if key not in routed:
            errors.append(
                "%s:%d: endpoint '%s %s' is documented but nothing "
                "registers it" % (rel_doc, documented[key], key[0], key[1]))
    return errors


CI_TABLE = os.path.join("bench", "ci_benches.txt")
TABLE_TARGET_RE = re.compile(r"^bench_(e\d{2})_[a-z0-9_]+$")
BENCH_JSON_RE = re.compile(r"\bBENCH_E\d{2}\.json\b")
# An EXPERIMENTS.md section: "### E13 ..." up to the next heading.
SECTION_RE = re.compile(r"^### (E\d{2})\b(.*?)(?=^#|\Z)", re.M | re.S)


def lint_ci_table(root):
    """Check 5: bench/ci_benches.txt, bench/CMakeLists.txt and
    EXPERIMENTS.md must agree."""
    table_path = os.path.join(root, CI_TABLE)
    doc_path = os.path.join(root, "EXPERIMENTS.md")
    if not (os.path.exists(table_path) and os.path.exists(doc_path)):
        return []
    with open(doc_path, encoding="utf-8") as handle:
        doc = handle.read()
    sections = dict(SECTION_RE.findall(doc))
    declared = cmake_bench_targets(root)
    errors = []
    rows = set()
    with open(table_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            where = "%s:%d" % (CI_TABLE, lineno)
            match = TABLE_TARGET_RE.match(fields[0])
            if len(fields) != 3 or not match:
                errors.append("%s: expected 'bench_eNN_name threshold "
                              "strict-paths'" % where)
                continue
            if fields[0] not in declared:
                errors.append("%s: bench target '%s' is not declared in "
                              "bench/CMakeLists.txt" % (where, fields[0]))
            experiment = match.group(1).upper()
            json_name = "BENCH_%s.json" % experiment
            rows.add(json_name)
            strict = [] if fields[2] == "-" else fields[2].split(",")
            for name in [json_name] + strict:
                if name not in sections.get(experiment, ""):
                    errors.append("%s: EXPERIMENTS.md's %s section does not "
                                  "name '%s'" % (where, experiment, name))
    for lineno, line in enumerate(doc.splitlines(), 1):
        for json_name in BENCH_JSON_RE.findall(line):
            if json_name not in rows:
                errors.append("EXPERIMENTS.md:%d: %s has no row in %s" %
                              (lineno, json_name, CI_TABLE))
    return errors


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    files = sorted(
        glob.glob(os.path.join(root, "*.md")) +
        glob.glob(os.path.join(root, "docs", "*.md")))
    if not files:
        print("docs_lint: no markdown files found under %s" % root)
        return 1
    errors = []
    for path in files:
        errors.extend(lint_links(path, root))
    errors.extend(lint_bench_targets(root))
    errors.extend(lint_metric_catalogue(root))
    errors.extend(lint_endpoints(root))
    errors.extend(lint_ci_table(root))
    for error in errors:
        print(error)
    print("docs_lint: %d file(s), %d violation(s)" % (len(files), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())


