"""Makes the ledger's modules and the program under ``src/`` importable:
``python -m pytest benchmarks/ledger/tests`` from the repository root."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
for path in (str(LEDGER), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
