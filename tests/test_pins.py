"""Every preset's outputs, pinned byte for byte.

Each preset runs under each method at `--rounds 2 --seed 1`, and the sha256
of its metrics.csv, attention.csv, residuals.csv and dp.csv, and its
manifest's content_hash, must equal the pins in output_pins.json. So must
the four files of each run in VARIANTS, a preset under overrides no preset
ships. The shipped configs/*.json must equal `treefed export-preset` output.

The bits of a run depend on the numpy version and the BLAS kernels it runs
on, so output_pins.json holds one pin set per numpy version and OpenBLAS
kernel core (`numerics()["blas_core"]`), and a run is only compared with
the set of the kernel it runs on. A kernel with no set fails, naming the
command that records one. That command records or replaces the running
kernel's set and keeps every other; OPENBLAS_CORETYPE picks the kernel:

    PYTHONPATH=src python tests/test_pins.py --write
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_pins.py --write

A deliberate output change rewrites every set in the same change.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from treefed.cli import METHODS, main, numerics
from treefed.presets import PRESETS

HERE = Path(__file__).resolve().parent
PINS = HERE / "output_pins.json"
CONFIGS = HERE.parent / "configs"
FILES = ("metrics.csv", "attention.csv", "residuals.csv", "dp.csv")
EXPORTED = ("fig2", "fig2-swapped", "dp-cc-wk")
# name: (preset, method, overrides)
VARIANTS = {"fig2-keyless": ("fig2", "worldlm", ["model.key_block_count=0"]),
            # one window per val split, which mean_nll scores as a doubled
            # one-row batch when the split runs through the model alone
            "fig2-one-val-window": ("fig2", "worldlm", ["data.val_tokens=3"])}


def run_files(out: Path, preset: str, method: str, overrides=()) -> tuple[dict, str]:
    """The sha256 of each output file of one run, and its content_hash."""
    argv = ["run", "--preset", preset, "--method", method, "--rounds", "2", "--seed", "1",
            "--out", str(out)]
    for override in overrides:
        argv += ["--override", override]
    if main(argv) != 0:
        raise RuntimeError(f"treefed {' '.join(argv)} failed")
    run_dir = out / f"{preset}__{method}__seed1"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return ({name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in FILES},
            manifest["content_hash"])


def pin_key(running: dict) -> str:
    """The name of the pin set for a numerics() record."""
    return f"numpy {running['numpy']}, BLAS core {running['blas_core']}"


def write_command() -> str:
    """The command that records the running kernel's pin set."""
    core = os.environ.get("OPENBLAS_CORETYPE")
    return (f"OPENBLAS_CORETYPE={core} " if core else "") + \
        "PYTHONPATH=src python tests/test_pins.py --write"


def run_all(out: Path) -> dict:
    """The pins of this code: {numerics, content_hash, outputs, variants}."""
    pins = {"numerics": numerics(), "content_hash": {}, "outputs": {}, "variants": {}}
    for preset in sorted(PRESETS):
        pins["outputs"][preset] = {}
        for method in METHODS:
            files, content_hash = run_files(out, preset, method)
            pins["content_hash"].setdefault(preset, content_hash)
            if content_hash != pins["content_hash"][preset]:
                raise RuntimeError(f"{preset}: content_hash differs between methods")
            pins["outputs"][preset][method] = files
    for name, (preset, method, overrides) in VARIANTS.items():
        pins["variants"][name] = run_files(out / name, preset, method, overrides)[0]
    return pins


def test_every_preset_output_is_pinned(tmp_path, capsys):
    sets = json.loads(PINS.read_text())
    key = pin_key(numerics())
    assert key in sets, (f"no pins for {key}; pinned: {sorted(sets)}. "
                         f"Record this kernel's with: {write_command()}")
    want = sets[key]
    got = run_all(tmp_path)
    capsys.readouterr()
    bad = [f"{preset}: content_hash {got['content_hash'][preset]} != pinned {h}"
           for preset, h in want["content_hash"].items() if got["content_hash"][preset] != h]
    bad += [f"{preset} {method} {name}: sha256 {got['outputs'][preset][method][name]} "
            f"!= pinned {digest}"
            for preset, methods in want["outputs"].items()
            for method, files in methods.items()
            for name, digest in files.items()
            if got["outputs"][preset][method][name] != digest]
    bad += [f"{variant} {name}: sha256 {got['variants'][variant][name]} != pinned {digest}"
            for variant, files in want["variants"].items()
            for name, digest in files.items()
            if got["variants"][variant][name] != digest]
    for name in EXPORTED:
        assert main(["export-preset", name]) == 0
        if (CONFIGS / f"{name}.json").read_text() != capsys.readouterr().out:
            bad.append(f"configs/{name}.json differs from `treefed export-preset {name}`")
    assert sorted(got["outputs"]) == sorted(want["outputs"])
    assert sorted(got["variants"]) == sorted(want["variants"])
    assert not bad, "\n".join(
        [*bad, f"pinned on numpy {want['numerics']['numpy']}, BLAS {want['numerics']['blas']}",
         f"running numpy {got['numerics']['numpy']}, BLAS {got['numerics']['blas']}"])


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        pins = run_all(Path(tmp))
    sets = json.loads(PINS.read_text()) if PINS.exists() else {}
    sets[pin_key(pins["numerics"])] = pins
    PINS.write_text(json.dumps(sets, indent=1, sort_keys=True) + "\n")
    print(f"wrote the {pin_key(pins['numerics'])} pins to {PINS}")
