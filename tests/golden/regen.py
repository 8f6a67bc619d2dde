"""Regenerate, check, snapshot, or diff the pinned golden traces.

The traces come from :func:`repro.report.scenarios.golden_trace`; the
digests live in ``src/repro/report/trace_digests.json``.

Usage::

    PYTHONPATH=src python tests/golden/regen.py                  # regenerate digests
    PYTHONPATH=src python tests/golden/regen.py --check          # verify, exit 1 on drift
    PYTHONPATH=src python tests/golden/regen.py --snapshot DIR   # save full trace texts
    PYTHONPATH=src python tests/golden/regen.py --diff DIR       # per-event diff vs DIR

Only regenerate after an *intentional* behaviour change — the whole
point of the pinned digests is that data-structure and performance
refactors must NOT change them.

The snapshot/diff pair exists because a digest mismatch alone is
undebuggable: the traces are JSONL with one simulation event per line,
so diffing against a snapshot taken from a known-good checkout reports
the **first divergent event index** plus a context window — usually
enough to name the exact grant/timestamp that moved.  Typical CI
forensics::

    git stash && python tests/golden/regen.py --snapshot /tmp/good
    git stash pop && python tests/golden/regen.py --diff /tmp/good
"""

import argparse
import hashlib
import json
from pathlib import Path

from repro.report.scenarios import (
    DIGESTS_FILE,
    SCENARIOS,
    golden_trace,
    pinned_digests,
)

OUT = Path(DIGESTS_FILE)

#: Lines of context shown on each side of the first divergence.
CONTEXT = 3


def _digest(text: str) -> dict:
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "lines": text.count("\n") + (0 if text.endswith("\n") or not text else 1),
    }


def build_traces() -> dict[str, str]:
    return {bench_id: golden_trace(bench_id) for bench_id in sorted(SCENARIOS)}


def regenerate() -> None:
    traces = build_traces()
    digests = {bench_id: _digest(text) for bench_id, text in traces.items()}
    OUT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for bench_id, d in digests.items():
        print(f"{bench_id}: {d['sha256'][:16]}...  ({d['bytes']} bytes)")
    print(f"wrote {OUT}")


def check() -> int:
    pinned = pinned_digests()
    traces = build_traces()
    drifted = []
    for bench_id in sorted(pinned):
        current = _digest(traces[bench_id])
        if current["sha256"] == pinned[bench_id]["sha256"]:
            print(f"{bench_id}: ok")
        else:
            drifted.append(bench_id)
            print(
                f"{bench_id}: DRIFT ({current['bytes']} bytes vs pinned "
                f"{pinned[bench_id]['bytes']})"
            )
    if drifted:
        print(
            f"\n{len(drifted)} trace(s) drifted: {', '.join(drifted)}\n"
            "Debug with: regen.py --snapshot DIR (on a good checkout), "
            "then regen.py --diff DIR (here)."
        )
        return 1
    return 0


def snapshot(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for bench_id, text in build_traces().items():
        (directory / f"{bench_id}.jsonl").write_text(text)
        print(f"{bench_id}: {len(text.encode())} bytes -> {directory / f'{bench_id}.jsonl'}")


def diff(directory: Path) -> int:
    """Per-event diff of the current traces against a snapshot.

    Reports, per drifted trace, the index of the first divergent event
    (JSONL line) with ``CONTEXT`` lines of surrounding context from
    both sides — the debuggable form of a digest mismatch.
    """
    divergent = 0
    for bench_id, text in sorted(build_traces().items()):
        path = directory / f"{bench_id}.jsonl"
        if not path.exists():
            print(f"{bench_id}: no snapshot at {path}, skipping")
            continue
        old = path.read_text().splitlines()
        new = text.splitlines()
        if old == new:
            print(f"{bench_id}: identical ({len(new)} events)")
            continue
        divergent += 1
        limit = min(len(old), len(new))
        idx = next(
            (i for i in range(limit) if old[i] != new[i]),
            limit,  # one trace is a strict prefix of the other
        )
        print(f"{bench_id}: FIRST DIVERGENT EVENT at index {idx} "
              f"(snapshot {len(old)} events, current {len(new)})")
        for i in range(max(0, idx - CONTEXT), min(len(old), len(new), idx)):
            print(f"    = [{i}] {old[i]}")
        if idx < len(old):
            print(f"    - [{idx}] {old[idx]}")
        else:
            print(f"    - [{idx}] <end of snapshot trace>")
        if idx < len(new):
            print(f"    + [{idx}] {new[idx]}")
        else:
            print(f"    + [{idx}] <end of current trace>")
        for i in range(idx + 1, min(idx + 1 + CONTEXT, len(old), len(new))):
            marker = "=" if old[i] == new[i] else "!"
            print(f"    {marker} [{i}] {new[i]}")
    if divergent:
        print(f"\n{divergent} trace(s) diverged from the snapshot")
        return 1
    print("all traces identical to the snapshot")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="verify current traces against the pinned digests (exit 1 on drift)",
    )
    mode.add_argument(
        "--snapshot", metavar="DIR", type=Path,
        help="write the full trace texts to DIR for later --diff",
    )
    mode.add_argument(
        "--diff", metavar="DIR", type=Path,
        help="per-event diff of current traces against a --snapshot DIR",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    if args.snapshot:
        snapshot(args.snapshot)
        return 0
    if args.diff:
        return diff(args.diff)
    regenerate()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
