import tracemalloc

import pytest

from bottlenet.costs import (
    madds_depthwise,
    madds_depthwise_separable,
    madds_standard_conv,
    model_cost,
    separable_speedup,
)
from bottlenet.model import ModelSpec, build_model, make_bottleneck
from bottlenet.tensor import Rng, random_gaussian

from conftest import bottleneck_madds, executed_madds

ALPHAS = (0.35, 0.5, 0.75, 1.0, 1.4)
RESOLUTIONS = (96, 128, 160, 192, 224)


class TestFormulas:
    def test_stem_reference_value(self):
        assert madds_standard_conv(224, 224, 3, 32, kernel=3, stride=2) == 10_838_016

    def test_pointwise_case(self):
        assert madds_standard_conv(14, 14, 8, 16, kernel=1) == 14 * 14 * 8 * 16

    def test_linear_in_output_channels(self):
        one = madds_standard_conv(28, 28, 16, 24, kernel=3)
        two = madds_standard_conv(28, 28, 16, 48, kernel=3)
        assert two == 2 * one

    def test_separable_equals_stagewise_recount(self):
        for stride in (1, 2):
            combined = madds_depthwise_separable(28, 28, 32, 64, kernel=3, stride=stride)
            dw = madds_depthwise(28, 28, 32, kernel=3, stride=stride)
            pw = madds_standard_conv(28, 28, 32, 64, kernel=1, stride=stride)
            assert combined == dw + pw

    def test_separable_degenerate(self):
        assert madds_depthwise_separable(10, 10, 7, 1, kernel=1) == 2 * 10 * 10 * 7

    def test_speedup_ratio(self):
        assert separable_speedup(64) == pytest.approx(576 / 73)
        # approaches k^2 for wide layers; in the 8..9 band for typical widths
        assert 8.0 < separable_speedup(512) < 9.0
        assert separable_speedup(2048) < 9.0


class TestModelCost:
    def test_reference_totals_alpha1(self):
        report = model_cost(ModelSpec())
        assert report.total_madds == 300_774_272
        assert report.total_params == 3_487_816

    def test_reference_totals_alpha14(self):
        report = model_cost(ModelSpec(width_multiplier=1.4))
        assert report.total_madds == 582_195_824
        assert report.total_params == 6_084_808

    def test_zero_cost_ops(self):
        report = model_cost(ModelSpec())
        pool = next(r for r in report.rows if r.name == "avgpool")
        assert pool.madds == 0 and pool.params == 0

    def test_bias_column_separates_conventions(self):
        report = model_cost(ModelSpec())
        weights_only = report.total_params - report.total_bias_params
        assert weights_only == 3_487_816 - 18_056

    def test_totals_are_row_sums(self):
        report = model_cost(ModelSpec(width_multiplier=0.5, resolution=160))
        assert report.total_madds == sum(r.madds for r in report.rows)
        assert report.total_params == sum(r.params for r in report.rows)

    def test_monotone_in_alpha_and_resolution(self):
        madds = {}
        params = {}
        for a in ALPHAS:
            for r in RESOLUTIONS:
                rep = model_cost(ModelSpec(resolution=r, width_multiplier=a))
                madds[a, r] = rep.total_madds
                params[a, r] = rep.total_params
        for a in ALPHAS:
            for r1, r2 in zip(RESOLUTIONS, RESOLUTIONS[1:]):
                assert madds[a, r1] < madds[a, r2]
                assert params[a, r1] == params[a, r2]  # params blind to resolution
        for r in RESOLUTIONS:
            for a1, a2 in zip(ALPHAS, ALPHAS[1:]):
                assert madds[a1, r] <= madds[a2, r]
                assert params[a1, r] <= params[a2, r]

    def test_sweep_range(self):
        lo = model_cost(ModelSpec(resolution=96, width_multiplier=0.35)).total_madds
        hi = model_cost(ModelSpec(resolution=224, width_multiplier=1.4)).total_madds
        assert lo < 15e6
        assert 560e6 < hi < 610e6


class TestInstrumented:
    def test_single_pointwise_conv(self):
        from bottlenet import kernels
        from bottlenet.kernels import Conv2dParams

        rng = Rng(1)
        p = Conv2dParams(1, rng.normal((1, 1, 6, 9)), rng.normal((9,)))
        x = random_gaussian((1, 11, 13, 6), rng)
        with executed_madds() as madds:
            kernels.conv2d(x, p)
        assert madds.total == 11 * 13 * 6 * 9

    def test_single_bottleneck_matches_formula(self):
        from bottlenet.blocks import bottleneck_forward

        rng = Rng(2)
        p = make_bottleneck(8, 16, 6, 1)
        for st in (p.expand, p.depthwise, p.project):
            st.weights[...] = rng.normal(st.weights.shape)
        x = random_gaussian((1, 14, 14, 8), rng)
        with executed_madds() as madds:
            bottleneck_forward(x, p)
        assert madds.total == bottleneck_madds(14, 14, 8, 16, 6, stride=1)

    def test_full_small_model_exact(self):
        spec = ModelSpec(resolution=96, width_multiplier=0.35)
        model = build_model(spec).randomize(Rng(3))
        x = random_gaussian((1, 96, 96, 3), Rng(4))
        with executed_madds() as madds:
            model.forward(x)
        assert madds.total == model_cost(spec).total_madds

    def test_tables_allocate_no_weights(self):
        # Building the width-1.4 model zero-fills about 24 MB of weights;
        # the tables read shapes from the layer walk and allocate none.
        from bottlenet.memplan import block_graph, memory_table

        spec = ModelSpec(224, 1.4)
        for table in (model_cost, memory_table, block_graph):
            table(spec)
            tracemalloc.start()
            try:
                table(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (table.__name__, peak)
