"""Scale envelope: wall time and peak memory of the finite-n sums and of the
Poissonized sampler on heavy-tailed populations, of the profile MLE on a
sample with K ~ n, of the MLE and the profile MLE at K = 1e6 with ties, of
simulate and fit --stats on a single block of n, and of a Pitman-Yor
partition of n = 1e7.

Each case runs in a fresh `python -c` child, which times the one call and
then prints its VmHWM (peak resident set) from /proc/self/status.  A fresh
interpreter is needed because a forked child's ru_maxrss starts at its
parent's RSS, so it would measure the test process instead of the call.
Budgets hold at least four times the time and twice the memory measured on a
2-core x86-64 host (Python 3.11, numpy 2.4); an interpreter with numpy
imported takes about 35 MiB of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pitmanyor

_CHILD = """
import json, time
{setup}
t0 = time.perf_counter()
{call}
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh
               if line.startswith("VmHWM:"))
print(json.dumps({{"seconds": seconds, "mib": kib / 1024}}))
"""

# name -> (setup, call, seconds, MiB); measured: 0.44 s and 42 MiB, 0.03 s
# and 33 MiB, 1.4 s and 128 MiB, 1.7 s and 53 MiB, 0.01 s and 31 MiB, 5.2 s
# and 284 MiB, 0.06 s and 36 MiB
CASES = {
    "sigma0n_root": (
        "from pitmanyor.asymptotics import sigma0n_root\n"
        "from pitmanyor.population import make_power_law\n"
        "pop = make_power_law(1.1)",
        "root = sigma0n_root(pop, 10 ** 6)\n"
        "assert 0.85 < root < 0.95, root", 1.8, 85.0),
    "lemma_limit_ratios": (
        "from pitmanyor.experiments import lemma_limit_ratios\n"
        "from pitmanyor.population import make_power_law\n"
        "pop = make_power_law(1.5)",
        "ratios = lemma_limit_ratios(pop, 10 ** 6)\n"
        "assert all(abs(v - 1.0) < 0.05 for v in ratios.values()), ratios",
        1.0, 128.0),
    "sample_poissonized": (
        "from pitmanyor.population import make_power_law\n"
        "from pitmanyor.sampler import RngStream, sample_poissonized\n"
        "pop = make_power_law(1.1)",
        "species, _ = sample_poissonized(pop, 10 ** 6, RngStream(0))\n"
        "assert 3e5 < species.size < 4e5, species.size", 6.0, 256.0),
    # K ~ n: a million distinct species
    "profile_mle_all_distinct": (
        "from pitmanyor.estimators import UPPER_SIGMA, profile_mle\n"
        "from pitmanyor.partition import from_sizes\n"
        "stats = from_sizes([1] * 10 ** 6)",
        "fit = profile_mle(stats, M_max=50.0)\n"
        "assert fit.boundary == UPPER_SIGMA, fit.boundary", 8.0, 128.0),
    # K = 1e6 with ties: 8e5, 1.5e5, 4e4 and 1e4 blocks of sizes 1, 2, 5
    # and 50, whose score, Hessian and M-slope sums over l < K are closed
    # forms, for one fit and for the profile's 64 grid nodes at once
    "mle_and_profile_with_ties": (
        "import numpy as np\n"
        "from pitmanyor.estimators import INTERIOR, mle_sigma, profile_mle\n"
        "from pitmanyor.partition import PartitionStats\n"
        "stats = PartitionStats(np.array([1, 2, 5, 50]),\n"
        "                       np.array([800000, 150000, 40000, 10000]))",
        "fit = mle_sigma(stats, 1.0)\n"
        "assert fit.boundary == INTERIOR, fit.boundary\n"
        "fit = profile_mle(stats, M_max=50.0)\n"
        "assert 0.8 < fit.sigma_hat < 0.85 and fit.M_hat == 50.0, fit",
        0.1, 64.0),
    # a single block of n = 1e7: simulate writes a stats record whose Z has
    # 1e7 entries, one line each, and fit --stats reads it back
    "simulate_fit_one_block": (
        "import tempfile\n"
        "from pathlib import Path\n"
        "from pitmanyor.cli import main\n"
        "tmp = tempfile.TemporaryDirectory()\n"
        "pop, out = Path(tmp.name) / 'pop.json', Path(tmp.name) / 's.csv'\n"
        "pop.write_text('{\"kind\": \"explicit\", \"probs\": [1.0]}')",
        "assert main(['simulate', '--population', str(pop),\n"
        "             '--n', str(10 ** 7), '--out', str(out)]) == 0\n"
        "assert main(['fit', '--stats', str(out.with_suffix('.json')),\n"
        "             '--out', str(out.with_suffix('.fit'))]) == 0\n"
        "tmp.cleanup()", 24.0, 576.0),
    # a Pitman-Yor partition of n = 1e7 into K ~ 1e4 blocks, peeled in O(K)
    "sample_py_partition": (
        "from pitmanyor.sampler import RngStream, sample_py_partition",
        "st = sample_py_partition(0.5, 1.0, 10 ** 7, RngStream(0))\n"
        "assert st.n == 10 ** 7 and 10 ** 3 < st.K < 10 ** 5, st.K",
        0.25, 72.0),
}


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from Linux /proc")
@pytest.mark.parametrize("name", sorted(CASES))
def test_scale_envelope(name):
    setup, call, seconds, mib = CASES[name]
    src = str(Path(pitmanyor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(setup=setup, call=call)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    used = json.loads(done.stdout.splitlines()[-1])
    assert used["seconds"] <= seconds, used
    assert used["mib"] <= mib, used
