"""Run manifests: a JSON audit record written beside every output, capturing
the exact command line, the effective configuration, the seeds, and a content
digest of every input file the run read. Packaged prompt templates are
covered by the artifact version rather than listed per run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

from .data import Record, sha256_file, write_atomic

ARTIFACT_VERSION = "0.1.0"
MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest(Record):
    command_line: str
    config: dict
    seeds: dict
    input_digests: dict[str, str]
    artifact_version: str
    created_at: str


def manifest_path_for(out_target: str | Path) -> Path:
    """Directory outputs get <dir>/manifest.json; file outputs a sibling
    <name>.manifest.json."""
    out = Path(out_target)
    if out.is_dir():
        return out / MANIFEST_NAME
    return out.with_name(out.name + ".manifest.json")


def _expand(paths: Iterable[str | Path]) -> list[Path]:
    expanded: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            expanded.extend(sorted(p for p in path.rglob("*") if p.is_file()))
        elif path.is_file():
            expanded.append(path)
    return expanded


def write_manifest(
    out_target: str | Path,
    *,
    command_line: str,
    config: Mapping | None = None,
    seeds: Mapping | None = None,
    inputs: Iterable[str | Path] = (),
) -> Path:
    digests = {str(p): sha256_file(p) for p in _expand(inputs)}
    manifest = RunManifest(
        command_line=command_line,
        config=dict(config or {}),
        seeds=dict(seeds or {}),
        input_digests=digests,
        artifact_version=ARTIFACT_VERSION,
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    path = manifest_path_for(out_target)
    write_atomic(path, [json.dumps(manifest.to_dict(), indent=2, ensure_ascii=False)])
    return path
