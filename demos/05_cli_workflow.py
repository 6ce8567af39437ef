"""The config-driven command-line workflow, end to end.

Everything the library does is also scriptable through the `ocrdrift`
command: one JSON config names the corpora, models, and output
directory, and the subcommands stage the experiment. This demo generates
a noisy corpus, then runs stats -> error-rates -> train -> evaluate on
it, producing tables, curves, and the final figure.
"""

import atexit
import json
import shutil
import tempfile
from pathlib import Path

from ocrdrift.cli import main

workdir = Path(tempfile.mkdtemp(prefix="ocrdrift-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)

# stage 1: synthesize an aligned corpus at 10% character noise
noise_config = workdir / "noise.json"
noise_config.write_text(json.dumps({
    "out_dir": str(workdir / "data"),
    "seed": 9,
    "noise": {
        "levels": [0.10],
        "synthetic_chars": 80_000,
        "doc_chars": 1200,
        "out_name": "demo",
    },
}, indent=2), encoding="utf-8")
assert main(["noise", "--config", str(noise_config)]) == 0

# stage 2: one experiment config for every later command
experiment = workdir / "experiment.json"
experiment.write_text(json.dumps({
    "out_dir": str(workdir / "results"),
    "seed": 40,
    "runs": 2,
    "n_grid": {"start": 0.01, "stop": 1.0, "step": 0.01},
    "bootstrap_resamples": 300,
    "languages": [
        {"language": "other", "path": str(workdir / "data" / "noise" / "demo" / "cer010"),
         "format": "paired"}
    ],
    "models": [
        {"model": "ppmi", "window": 5, "min_count": 5},
        {"model": "sgns", "rate_profile": "fast", "dim": 32, "window": 5,
         "epochs": 3, "min_count": 5},
    ],
}, indent=2), encoding="utf-8")

for command in ("stats", "error-rates", "train", "evaluate"):
    print(f"\n$ ocrdrift {command} --config experiment.json")
    assert main([command, "--config", str(experiment)]) == 0

results = workdir / "results"
print("\nartifacts:")
for path in sorted(results.rglob("*")):
    if path.is_file():
        print(" ", path.relative_to(workdir))
