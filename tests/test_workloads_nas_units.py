"""Unit-level tests for the NAS kernel modules (parameter tables, helpers,
per-kernel personalities) that don't need full cluster runs."""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.workloads.nas import cg, ep, is_, lu, mg
from repro.workloads.nas.lu import _grid_shape, _recurrence

ALL_MODULES = {"CG": cg, "EP": ep, "IS": is_, "LU": lu, "MG": mg}


class TestClassTables:
    @pytest.mark.parametrize("name,mod", list(ALL_MODULES.items()))
    def test_classes_cover_w_b_c(self, name, mod):
        assert set(mod.CLASSES) >= {"W", "B", "C"}, name

    @pytest.mark.parametrize("name,mod", list(ALL_MODULES.items()))
    def test_classes_scale_up(self, name, mod):
        """Class C must be strictly more work than class W in at least
        the primary volume knobs."""
        w, c = mod.CLASSES["W"], mod.CLASSES["C"]
        import dataclasses

        w_vals = dataclasses.asdict(w)
        c_vals = dataclasses.asdict(c)
        bigger = sum(1 for k in w_vals if c_vals[k] > w_vals[k])
        assert bigger >= 2, name

    def test_kernel_names(self):
        for name, mod in ALL_MODULES.items():
            assert mod.program.kernel_name == name

    def test_unknown_class_raises(self):
        with pytest.raises(KeyError):
            cg.CLASSES["Z"]


class TestLUGridShape:
    def test_8_ranks(self):
        px, py = _grid_shape(8)
        assert px * py == 8
        assert px >= py

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 16])
    def test_factorisation(self, n):
        px, py = _grid_shape(n)
        assert px * py == n
        assert px >= py >= 1


class TestKernelPersonalities:
    """The per-kernel communication/memory personalities that drive
    Fig 6's shape — checked structurally, without running clusters."""

    def test_cg_exchange_is_rendezvous_sized(self):
        """CG's vector exchanges must be in the RDMA regime for the
        registration effects to show (class C moves ~600 KB)."""
        assert cg.CLASSES["C"].exchange_bytes > 16 * 1024
        assert cg.CLASSES["B"].exchange_bytes > 16 * 1024

    def test_ep_has_more_tables_than_hugepage_tlb(self):
        """EP's rotation width is what thrashes the 8-entry array."""
        for klass in ("W", "B", "C"):
            assert ep.CLASSES[klass].tables > 8

    def test_is_bucket_rotation_wide(self):
        for klass in ("W", "B", "C"):
            assert is_.CLASSES[klass].buckets > 8

    def test_is_stride_is_pow2(self):
        """The page-colouring pathology needs a power-of-two stride
        (hard-wired 256 KB in the kernel)."""
        stride = 256 * 1024
        assert stride & (stride - 1) == 0

    def test_lu_streams_fit_hugepage_tlb(self):
        """LU runs 4 field arrays — under the 8-entry limit, which is
        why its TLB misses do NOT grow ('except for LU')."""
        assert 4 <= 8

    def test_lu_boundary_in_rdma_regime(self):
        for klass in ("B", "C"):
            assert lu.CLASSES[klass].boundary_bytes > 16 * 1024

    def test_mg_halos_shrink_below_eager_threshold(self):
        """MG's coarse-level halos go eager — the reason its comm gain
        stays below 8 %."""
        p = mg.CLASSES["C"]
        coarsest = p.fine_halo_bytes >> (p.levels - 1)
        assert coarsest < 16 * 1024
        assert p.fine_halo_bytes > 16 * 1024


def _numpy_scalar_recurrence(a, top, left):
    """The LU sweep as first written: numpy scalar indexing, the oracle
    that :func:`repro.workloads.nas.lu._recurrence` must match bit for bit."""
    rows, cols = a.shape
    v = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            up = v[i - 1, j] if i > 0 else top[j]
            lf = v[i, j - 1] if j > 0 else left[i]
            v[i, j] = up + lf + a[i, j]
    return v


_FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                    allow_subnormal=True)


class TestLURecurrence:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12))
    def test_matches_numpy_scalar_loop_bit_for_bit(self, data, rows, cols):
        a = data.draw(hnp.arrays(np.float64, (rows, cols), elements=_FLOATS))
        top = data.draw(hnp.arrays(np.float64, cols, elements=_FLOATS))
        left = data.draw(hnp.arrays(np.float64, rows, elements=_FLOATS))
        got = _recurrence(a, top, left)
        want = _numpy_scalar_recurrence(a, top, left)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_zero_boundaries_match_the_reference_grid(self):
        a = np.random.default_rng(31337).uniform(0.0, 1.0, size=(24, 48))
        got = _recurrence(a, np.zeros(48), np.zeros(24))
        assert got.tobytes() == _numpy_scalar_recurrence(
            a, np.zeros(48), np.zeros(24)).tobytes()
