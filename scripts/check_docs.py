#!/usr/bin/env python3
"""Docs consistency check (CI: the "docs" step; satellite of DESIGN.md §6).

Fails (exit 1) when README.md or DESIGN.md:
  * links to an intra-repo file that does not exist,
  * links to a heading anchor that no heading in the target file produces,
  * names (in backticks) a kv_*/sim_kv_*/fig* scenario, bench target or
    registered scenario config that the sources do not define, or
  * references (in backticks, as `engine=<name>`) a storage engine the
    registry in src/db/engine.cpp does not register.

The valid-name sets are parsed straight from the sources — ASL_SCENARIO
registrations in bench/*.cpp, add_executable targets in CMakeLists.txt,
the scenario-config string literals in src/server/scenarios.cpp, and the
kEngineRegistry rows in src/db/engine.cpp — so the check needs no build and cannot drift from the
registries it guards. Stdlib only; run from anywhere:

    python3 scripts/check_docs.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md"]

# Tokens that look like scenario/bench references. Deliberately narrow:
# kv_/sim_kv_/figNN prefixes only, full-token match, so file paths, class
# names (kv-get) and generic identifiers never trip the check.
SCENARIO_TOKEN = re.compile(r"(?:kv|sim_kv|fig\d+[a-z]*)_[a-z0-9_]+")

# Engine references use the `engine=<name>` convention in docs (matching the
# KvServiceConfig::engine field they describe); bare words like `hash` are
# far too generic to gate on.
ENGINE_TOKEN = re.compile(r"engine=([a-z0-9_]+)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->hyphens."""
    out = []
    for ch in heading.strip().lower():
        if ch.isalnum() or ch in " -_":
            out.append(ch)
    return "".join(out).replace(" ", "-")


def heading_slugs(path: pathlib.Path) -> set:
    slugs = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"^#+\s+(.*)$", line)
        if m:
            slugs.add(github_slug(m.group(1)))
    return slugs


def known_names() -> set:
    names = set()
    for bench in (ROOT / "bench").glob("*.cpp"):
        names |= set(
            re.findall(r"ASL_SCENARIO\(\s*(\w+)", bench.read_text()))
    cmake = (ROOT / "CMakeLists.txt").read_text()
    names |= set(re.findall(r"add_executable\((\w+)", cmake))
    scenarios = (ROOT / "src/server/scenarios.cpp").read_text()
    names |= set(re.findall(r'"(kv_\w+)"', scenarios))
    return names


def engine_names() -> set:
    """Registered engines: the quoted names opening kEngineRegistry rows."""
    text = (ROOT / "src/db/engine.cpp").read_text()
    m = re.search(r"kEngineRegistry\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    block = m.group(1) if m else ""
    return set(re.findall(r'\{"(\w+)"', block))


def check_doc(doc: str, names: set, engines: set) -> list:
    errors = []
    path = ROOT / doc
    text = path.read_text(encoding="utf-8")

    # Intra-repo markdown links: [label](target) and [label](file#anchor).
    for m in re.finditer(r"\[[^\]]*\]\(([^)\s]+)\)", text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        target_path = (path.parent / file_part) if file_part else path
        if not target_path.exists():
            errors.append(f"{doc}: broken link target '{target}'")
            continue
        if anchor and anchor not in heading_slugs(target_path):
            errors.append(f"{doc}: dead anchor '{target}'")

    # Scenario-name and engine references in inline code spans.
    for m in re.finditer(r"`([^`\n]+)`", text):
        token = m.group(1)
        if SCENARIO_TOKEN.fullmatch(token) and token not in names:
            errors.append(
                f"{doc}: references unknown scenario/bench name '{token}'")
        for engine in ENGINE_TOKEN.findall(token):
            if engine not in engines:
                errors.append(
                    f"{doc}: references unregistered engine '{engine}' "
                    f"(registered: {', '.join(sorted(engines))})")
    return errors


def main() -> int:
    names = known_names()
    engines = engine_names()
    errors = []
    if not engines:
        errors.append("no engines parsed from src/db/engine.cpp "
                      "(kEngineRegistry moved or renamed?)")
    for doc in DOCS:
        if not (ROOT / doc).exists():
            errors.append(f"missing {doc}")
            continue
        errors.extend(check_doc(doc, names, engines))
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        return 1
    print(f"check_docs: {len(DOCS)} docs OK against "
          f"{len(names)} registered names and {len(engines)} engines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
