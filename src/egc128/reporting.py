"""Run manifests and machine-readable report emission.

Every CLI run writes ``report.json`` under a subdirectory of the output
root named by the manifest hash (SHA-256 over the tool identity,
subcommand, parameters and seed; the timestamp is excluded so reruns
land in the same place and differ only in the timestamp field).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__

TOOL_NAME = "egc128"


def _jsonable(obj):
    """`obj` as JSON data; a non-finite float (such as the growth rate of
    a series from 0) becomes null, as JSON has no token for it."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def build_manifest(subcommand: str, parameters: dict, seed: int) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "parameters": _jsonable(parameters),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def manifest_hash(manifest: dict) -> str:
    stable = {k: v for k, v in manifest.items() if k not in ("timestamp", "outputs")}
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_directory(subcommand: str, parameters: dict, seed: int, out_root: str | Path) -> Path:
    """The directory under `out_root` that the report of this run goes to."""
    return Path(out_root) / manifest_hash(build_manifest(subcommand, parameters, seed))


def write_report(subcommand: str, parameters: dict, results, seed: int,
                 out_root: str | Path = "reports", fmt: str = "json") -> Path:
    """Write the report and return the path of its run directory."""
    manifest = build_manifest(subcommand, parameters, seed)
    run_dir = Path(out_root) / manifest_hash(manifest)
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = {"manifest": manifest, "results": _jsonable(results)}
    report_path = run_dir / "report.json"
    manifest["outputs"] = [str(report_path)]
    if fmt == "csv":
        csv_path = run_dir / "results.csv"
        _write_csv(payload["results"], csv_path)
        manifest["outputs"].append(str(csv_path))
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                           + "\n")
    return run_dir


def _write_csv(results, path: Path) -> None:
    """A list of records becomes a header and one row per record; any
    other result becomes key,value rows.  Every value is written as
    JSON."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(results, list) and results and isinstance(results[0], dict):
            writer.writerow(results[0].keys())
            writer.writerows(map(json.dumps, row.values()) for row in results)
        else:
            writer.writerow(["key", "value"])
            for k, v in (results if isinstance(results, dict) else {"value": results}).items():
                writer.writerow([k, json.dumps(v)])
