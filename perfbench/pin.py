"""Regenerate ``pins.json``: the expected output of every workload for
every world seed in the pool.

    python3 perfbench/pin.py [SEED ...]

For each pool seed it runs the ``sweep`` and ``watch`` commands as the
workloads do and digests their stdout, then renders every serve unit
(each registry metric for each national-view country; global metrics
once) through the public pipeline API and digests each ``text``. It
refuses to pin when the two disagree: every sweep block must equal the
in-process rendering of the same unit, and the watch stream must pass
the event-schema check. Run it only when the program's output is meant
to change; a pin that moves is a change in ranking bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import harness
from workloads import (
    CONFIG, PINS_PATH, RANK, digest, sweep_args, watch_args,
)


def _stdout(args: list[str]) -> str:
    return subprocess.run(
        [harness.PYTHON, *RANK, *args], check=True, capture_output=True,
        env=harness.child_env(), cwd=harness.ROOT, text=True,
    ).stdout


def pin_seed(s: int) -> dict:
    sys.path.insert(0, str(harness.ROOT / "src"))
    from repro.core.pipeline import PipelineConfig, run_pipeline
    from repro.core.registry import METRICS
    from repro.monitor.events import validate_watch_jsonl
    from repro.topology.catalog import build_world

    sweep = _stdout(sweep_args(s, "memory"))
    blocks = sweep.split("\n\n")
    if blocks[-1] != "" or "".join(b + "\n\n" for b in blocks[:-1]) != sweep:
        raise SystemExit(f"seed {s}: sweep output does not split into tables")

    result = run_pipeline(build_world("default", s), PipelineConfig(seed=s))
    countries = result.countries_with_national_view()
    units: dict[str, str] = {}
    texts: dict[str, str] = {}
    for name, spec in METRICS.items():
        for country in countries if spec.needs_country else [None]:
            key = name if country is None else f"{name}:{country}"
            texts[key] = result.ranking(name, country).render(10, result.as_name)
            units[key] = digest(texts[key])
    result.close()
    expected = [
        texts[f"{m}:{c}"]
        for m in CONFIG["sweep_metrics"].split(",") for c in countries
    ]
    if blocks[:-1] != expected:
        raise SystemExit(f"seed {s}: sweep tables differ from the rendered units")

    watch = _stdout(watch_args(s))
    problems = validate_watch_jsonl(watch)
    if problems:
        raise SystemExit(f"seed {s}: watch events invalid: {problems[:3]}")
    return {"sweep": digest(sweep), "watch": digest(watch), "units": units}


def main(seeds: list[int]) -> int:
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    for s in seeds or CONFIG["seed_pool"]:
        pins[str(s)] = pin_seed(s)
        print(f"seed {s}: {len(pins[str(s)]['units'])} units", flush=True)
    ordered = {str(s): pins[str(s)] for s in CONFIG["seed_pool"] if str(s) in pins}
    PINS_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
