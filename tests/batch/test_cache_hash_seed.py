"""A derivation-cache entry must serve a reader under any hash seed.

Expressions cache their hash on first use, and that value depends on the
process's string-hash seed.  If it travelled inside a pickled cache
entry, a reader with another ``PYTHONHASHSEED`` would get expressions
that compare equal to fresh ones but land in other dict buckets: index
lookups of the system equation failed, and the descriptor generator
rejected every cached state as "outside the component's local closure".
The writer and the reader here are separate processes with different
seeds, as in a batch run resumed later.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import sys
from pathlib import Path

from repro.batch.cache import DerivationCache, use_cache
from repro.pepa.ctmcgen import ctmc_from_statespace
from repro.pepa.parser import parse_model
from repro.pepa.statespace import derive
from repro.pepanets.parser import parse_net
from repro.pepanets.semantics import explore_net

root, model_path, net_path = sys.argv[1:4]
with use_cache(DerivationCache(root)) as cache:
    model = parse_model(Path(model_path).read_text())
    space = derive(model)
    assert space.index.get(model.system) == 0, "system equation not found"
    chain = ctmc_from_statespace(
        space, generator="descriptor", environment=model.environment
    )
    assert chain.n_states == space.size
    net = parse_net(Path(net_path).read_text())
    markings = explore_net(net)
    assert markings.index.get(net.initial_marking()) == 0, "initial marking not found"
    print(cache.stats.hits, cache.stats.misses)
"""


def _run(seed: int, root: Path) -> tuple[int, int]:
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(root),
         str(ROOT / "examples" / "models" / "file_protocol.pepa"),
         str(ROOT / "examples" / "models" / "instant_message.pepanet")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    hits, misses = done.stdout.split()
    return int(hits), int(misses)


def test_entries_written_under_one_seed_serve_another(tmp_path):
    root = tmp_path / "cache"
    assert _run(1, root) == (0, 3)   # PEPA space, its CTMC child, net space
    hits, misses = _run(2, root)
    assert hits == 3 and misses == 0
