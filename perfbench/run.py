"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload bulk_auto --seed 1 --seconds 25 --trace 0

It measures the checkout it sits in (``src/`` on ``PYTHONPATH``), never an
installed copy, and fails without a result when ``src/`` is missing.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scatternet"

if __name__ == "__main__":
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: {PACKAGE} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import scatternet
    from bench import main

    if Path(scatternet.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: imported scatternet from {scatternet.__file__}, not from {PACKAGE}")
    sys.exit(main(ROOT))
