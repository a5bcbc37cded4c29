"""Tests for the mini NAS kernels (functional verification + Fig 6 shape).

The class-W comparisons are module-scoped fixtures: each kernel runs
twice (small pages / preloaded hugepage library) on fresh clusters.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.mpi.api import Communicator, Endpoint
from repro.systems import presets
from repro.workloads.nas import KERNELS, cg, ep
from repro.workloads.nas import common as nas_common
from repro.workloads.nas.common import compare_hugepages, run_nas


@pytest.fixture(scope="module")
def fig6():
    return {
        name: compare_hugepages(prog, presets.opteron_infinihost_pcie(), klass="W")
        for name, prog in KERNELS.items()
    }


class TestFunctionalVerification:
    """Every kernel really computes: results checked against references."""

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_verified_small_pages(self, fig6, name):
        assert fig6[name].small.verified

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_verified_hugepages(self, fig6, name):
        assert fig6[name].huge.verified

    def test_cg_converges(self):
        r = run_nas(KERNELS["CG"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert r.verified

    def test_results_deterministic(self):
        a = run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        b = run_nas(KERNELS["EP"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert a.total_ticks == b.total_ticks
        assert a.comm_ticks == b.comm_ticks


class TestFig6Shape:
    """The paper's Fig 6 claims, as ordering/threshold constraints."""

    def test_comm_improvement_over_8pct_except_mg_is(self, fig6):
        """'Except for MG and IS, all benchmarks show communication
        performance benefits of more than 8 %.'"""
        for name in ("CG", "EP", "LU"):
            assert fig6[name].comm_improvement_pct > 8.0, name
        for name in ("MG", "IS"):
            assert fig6[name].comm_improvement_pct < 8.0, name

    def test_all_benefit_overall_except_is(self, fig6):
        """'Overall, all benchmarks benefited from using hugepages -
        except for IS.'"""
        for name in ("CG", "EP", "LU", "MG"):
            assert fig6[name].overall_improvement_pct > 0.0, name
        assert fig6["IS"].overall_improvement_pct < 0.0

    def test_best_case_over_10pct(self, fig6):
        """'The results show time improvements of more than 10 %.'"""
        assert max(c.overall_improvement_pct for c in fig6.values()) > 10.0

    def test_is_computation_hurt_by_hugepages(self, fig6):
        """IS's bucket scatter loses page colouring on hugepages."""
        assert fig6["IS"].other_improvement_pct < 0.0


class TestTLBMisses:
    """§5.2: 'TLB misses increased dramatically with hugepages (up to
    eight times with EP) except for LU.'"""

    def test_misses_increase_except_lu(self, fig6):
        for name in ("CG", "EP", "IS", "MG"):
            assert fig6[name].tlb_miss_ratio > 1.0, name
        assert fig6["LU"].tlb_miss_ratio <= 1.0

    def test_ep_worst_and_bounded(self, fig6):
        assert 4.0 < fig6["EP"].tlb_miss_ratio < 9.0

    def test_extra_misses_do_not_dominate_runtime(self, fig6):
        """'TLB misses are not responsible for less application time' —
        EP gets faster despite the inflated miss count."""
        assert fig6["EP"].other_improvement_pct > 0.0


class TestRegistrationCacheBehaviour:
    def test_hugepage_runs_keep_cache_warm(self, fig6):
        """The library never unmaps on free, so cached registrations
        survive the workspace churn; libc's munmap invalidates them."""
        cg = fig6["CG"]
        assert cg.huge.regcache_misses < cg.small.regcache_misses

    def test_runner_rejects_unverified(self):
        def broken(comm, klass="W"):
            return {"verified": False}
            yield

        broken.kernel_name = "BROKEN"
        with pytest.raises(RuntimeError, match="verification failed"):
            compare_hugepages(broken, presets.opteron_infinihost_pcie())


def _corrupt_once(monkeypatch, cls, method, rank, pick, key, corrupt):
    """Patch ``cls.method`` so that the first call made on *rank* for which
    ``pick(index, args)`` holds (*index* counts that rank's calls from 0)
    passes ``corrupt(kwargs[key])`` in place of ``kwargs[key]``.  Only the
    payload changes: sizes, addresses and tags stay as the kernel wrote
    them, so no tick of the run moves."""
    orig = getattr(cls, method)
    calls = itertools.count()
    done = []

    def patched(self, *args, **kwargs):
        if self.rank == rank and pick(next(calls), args) and not done:
            done.append(True)
            kwargs[key] = corrupt(kwargs[key])
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, patched)
    return done


def _shift_first_key_down(payloads):
    """IS: the keys bound for rank 1 gain one key from rank 0's range."""
    out = list(payloads)
    keys = out[1].copy()
    keys[0] = 0
    out[1] = keys
    return out


class TestVerificationBites:
    """Each kernel's numerical check reads the data the run moved: one
    corrupted message or reduction payload on one rank fails the run,
    while its timing stays exactly that of the clean run."""

    CASES = {
        # a direction-vector block of the last iteration's allgather
        "CG": (Communicator, "allgather", 5, lambda i, a: i == 5, "value",
               lambda v: v + 1.0),
        # the per-annulus counts one rank contributes to the reduction
        "EP": (Communicator, "allreduce", 3, lambda i, a: i == 0, "value",
               lambda v: v + np.eye(1, 10, 4, dtype=np.int64)[0]),
        # the last redistribution's keys from rank 2 to rank 1
        "IS": (Communicator, "alltoallv", 2, lambda i, a: i == 2, "payloads",
               _shift_first_key_down),
        # rank 6's last east boundary column (its only sends go east)
        "LU": (Communicator, "send", 6, lambda i, a: i == 7, "payload",
               lambda v: v * 2.0),
        # a ghost value of the first functional smoothing sweep (tag 206)
        "MG": (Endpoint, "send", 1, lambda i, a: a[1] == 206, "payload",
               lambda v: v + 0.5),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_corrupted_payload_fails_verification(self, monkeypatch, name):
        spec = presets.opteron_infinihost_pcie()
        clean = run_nas(KERNELS[name], spec, hugepages=False, klass="W")
        cls, method, rank, pick, key, corrupt = self.CASES[name]
        done = _corrupt_once(monkeypatch, cls, method, rank, pick, key, corrupt)
        bad = run_nas(KERNELS[name], spec, hugepages=False, klass="W")
        assert done
        assert clean.verified
        assert not bad.verified
        assert bad.total_ticks == clean.total_ticks
        assert bad.comm_ticks == clean.comm_ticks

    def test_is_checks_the_lower_splitter_edge(self, monkeypatch):
        """A key below rank 0's range sorts first and crosses no rank
        boundary; only the lower-edge check can see it."""
        def negative_key_for_rank0(payloads):
            out = list(payloads)
            out[0] = out[0].copy()
            out[0][0] = -1
            return out

        done = _corrupt_once(monkeypatch, Communicator, "alltoallv", 3,
                             lambda i, a: i == 2, "payloads",
                             negative_key_for_rank0)
        r = run_nas(KERNELS["IS"], presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        assert done
        assert not r.verified


class TestPerRunMemo:
    """State shared by a run's ranks is built once per run and dies with it."""

    def test_memo_holds_nothing_after_the_run(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(nas_common, "_PER_RUN", memo)
        live = []

        def program(comm, klass="W"):
            result = yield from ep.program(comm, klass)
            live.append(len(memo))
            return result

        r = run_nas(program, presets.opteron_infinihost_pcie(),
                    hugepages=False, klass="W")
        gc.collect()
        assert r.verified
        assert live == [1] * 8  # one world keyed while the run is live
        assert len(memo) == 0

    @pytest.mark.parametrize("module,fn,per_run_calls", [
        (ep, "_block", 32),       # 8 ranks x 4 class-W blocks
        (cg, "_spd_system", 1),
    ])
    def test_each_run_builds_its_own_state(self, monkeypatch, module, fn,
                                           per_run_calls):
        calls = []
        orig = getattr(module, fn)

        def counting(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(module, fn, counting)
        for run in range(2):
            r = run_nas(module.program, presets.opteron_infinihost_pcie(),
                        hugepages=False, klass="W")
            assert r.verified
            assert len(calls) == per_run_calls * (run + 1)
        assert sorted(calls[:per_run_calls]) == sorted(calls[per_run_calls:])
