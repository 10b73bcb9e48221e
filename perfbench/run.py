#!/usr/bin/env python3
"""Builds `arp` and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Build artifacts go to $CARGO_TARGET_DIR (default `.bench_build`), reports
and span files to `.bench_out`. Everything else is done by the
`arp-perfbench` binary; see perfbench/METHOD.md. Exits non-zero, without
printing a result, when the program cannot be built.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def cargo_build(manifest: Path, target: Path, *extra: str) -> None:
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's progress goes to stderr; stdout is reserved for the result.
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates",
             BENCH / "src", BENCH / "Cargo.toml"]
    for base in roots:
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        cargo_build(ROOT / "Cargo.toml", target, "--bin", "arp")
        cargo_build(BENCH / "Cargo.toml", target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(target / "release" / "arp-perfbench"), *sys.argv[1:],
           "--arp", str(target / "release" / "arp"),
           "--out", str(ROOT / ".bench_out"),
           "--source-id", source_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
