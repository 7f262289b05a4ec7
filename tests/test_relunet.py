import importlib.util
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lipwidth
import lipwidth.cli  # the tracer patches every layer, cli included
from lipwidth import relunet, spaces
from lipwidth.relunet import (
    ReLUNetConfig,
    _batched_forward,
    forward,
    input_grid,
    layer_output_bound,
    lip_bound,
    param_count,
    split_params,
    verify_lipschitz,
)
from lipwidth.spaces import PreconditionError
from oracles import closed_form_constant


def test_param_count_examples():
    assert param_count(1, 2, 1) == 7   # A0: 2x1 + 2 biases, A1: 1x2 + 1 bias
    assert param_count(2, 2, 2) == 15  # 6 + 6 + 3
    for d in (1, 2, 3):
        for w in (2, 3):
            for n in (1, 2, 3):
                assert param_count(d, w, n + 1) - param_count(d, w, n) == w * (w + 1)


def test_split_params_shapes_and_ordering():
    cfg = ReLUNetConfig(d=2, width=3, depth=2)
    y = np.arange(param_count(2, 3, 2), dtype=float) / 100.0
    layers = split_params(cfg, y)
    assert [a.shape for a, _ in layers] == [(3, 2), (3, 3), (1, 3)]
    # layer 0 entries come first, row-major, then its bias
    assert np.array_equal(layers[0][0].reshape(-1), y[:6])
    assert np.array_equal(layers[0][1], y[6:9])


def test_forward_zero_params():
    cfg = ReLUNetConfig(d=2, width=2, depth=2)
    y = np.zeros(param_count(2, 2, 2))
    for x in ([0.0, 0.0], [0.5, 1.0]):
        assert forward(cfg, y, x) == 0.0


def test_forward_absolute_value_network():
    # A0 = (1; -1), b0 = 0, A1 = (1, 1), b1 = 0 computes relu(x) + relu(-x) = |x|
    cfg = ReLUNetConfig(d=1, width=2, depth=1)
    y = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    for x in (0.0, 0.25, 0.8, 1.0):
        assert forward(cfg, y, [x]) == pytest.approx(abs(x), abs=1e-15)


def test_forward_layer_bounds_random_draws():
    cfg = ReLUNetConfig(d=2, width=3, depth=4)
    rng = np.random.default_rng(0)
    npar = param_count(2, 3, 4)
    for _ in range(200):
        y = rng.uniform(-1, 1, size=npar)
        x = rng.uniform(0, 1, size=2)
        forward(cfg, y, x, check_bounds=True)  # raises if a bound is violated


def test_forward_rejects_bad_inputs():
    cfg = ReLUNetConfig(d=1, width=2, depth=1)
    y = np.zeros(param_count(1, 2, 1))
    with pytest.raises(PreconditionError):
        forward(cfg, y, [1.5])
    with pytest.raises(PreconditionError):
        forward(cfg, 2.0 * np.ones_like(y), [0.5])
    with pytest.raises(PreconditionError):
        forward(cfg, np.zeros(3), [0.5])


def test_lip_bound_recursion_values():
    trace = lip_bound(ReLUNetConfig(d=1, width=2, depth=1))
    assert trace.constants == (2, 11)  # C1 = 5W + 1 at d = 1
    trace = lip_bound(ReLUNetConfig(d=1, width=2, depth=3))
    assert trace.constants == (2, 11, 35, 95)
    assert trace.final == 95
    assert trace.final < trace.coarse == (2 * 1 + 4) * 3 * 2 ** 3


def test_lip_bound_matches_unrolled_closed_form():
    for d in (1, 2, 3):
        for w in (2, 3):
            for n in (1, 2, 5, 9):
                cfg = ReLUNetConfig(d=d, width=w, depth=n)
                trace = lip_bound(cfg)
                for j in range(n + 1):
                    assert trace.constants[j] == closed_form_constant(cfg, j)


def test_lip_bound_huge_depth_exact_integers():
    trace = lip_bound(ReLUNetConfig(d=1, width=3, depth=400))
    assert trace.final < trace.coarse
    assert trace.final == closed_form_constant(ReLUNetConfig(d=1, width=3, depth=400), 400)


def test_layer_output_bound_formula():
    assert layer_output_bound(2, 3, 0) == 4
    assert layer_output_bound(2, 3, 4) == 4 * 81


def test_verify_lipschitz_passes():
    cfg = ReLUNetConfig(d=1, width=2, depth=3)
    res = verify_lipschitz(cfg, seed=11, trials=2000)
    assert res.passed and res.layer_bound_ok
    assert res.max_ratio <= res.bound
    assert res.bound == 95


@pytest.mark.parametrize("width,depth", [(2, 15), (3, 10), (2, 8)])
def test_verify_lipschitz_deep_configs_multiseed(width, depth):
    # every config with width * depth <= 30 passes for every seed tried
    cfg = ReLUNetConfig(d=1, width=width, depth=depth, grid=64)
    for seed in (0, 1, 2):
        res = verify_lipschitz(cfg, seed=seed, trials=300)
        assert res.passed and res.layer_bound_ok


@pytest.mark.parametrize("depth", [1, 3])
def test_layer_audit_covers_last_hidden_layer(monkeypatch, depth):
    # a zero bound on the last hidden layer must be caught by the audit
    from lipwidth import relunet

    real = relunet.lip_bound

    def zero_last(cfg):
        trace = real(cfg)
        return replace(trace, output_bounds=trace.output_bounds[:-1] + (0,))

    monkeypatch.setattr(relunet, "lip_bound", zero_last)
    res = verify_lipschitz(ReLUNetConfig(d=1, width=2, depth=depth), seed=1, trials=50)
    assert not res.layer_bound_ok and not res.passed
    assert res.layer_max_observed[-1] > 0


def test_layer_audit_sees_the_second_workers_chunks(monkeypatch):
    # 1100 trials are chunks 0, 1, 2; with two workers chunk 1 is the second's
    real = relunet.lip_bound

    def zero_last(cfg):
        trace = real(cfg)
        return replace(trace, output_bounds=trace.output_bounds[:-1] + (0,))

    monkeypatch.setattr(relunet, "lip_bound", zero_last)
    monkeypatch.setattr(relunet, "worker_count", lambda: 2)
    cfg = ReLUNetConfig(d=1, width=2, depth=3)
    res = verify_lipschitz(cfg, seed=1, trials=1100)
    assert not res.layer_bound_ok and not res.passed
    _, second = relunet._falsify_chunks(cfg, 1, 1100, input_grid(cfg), range(1, 3, 2))
    assert second[-1] > 0


def test_verify_lipschitz_deterministic():
    cfg = ReLUNetConfig(d=2, width=3, depth=2)
    a = verify_lipschitz(cfg, seed=5, trials=700)
    b = verify_lipschitz(cfg, seed=5, trials=700)
    assert a.max_ratio == b.max_ratio


def test_last_layer_perturbation_ratio():
    # pairs differing only in the output layer: the difference is bounded by
    # the layer-(n-1) output bound times W, plus the bias, strictly below C_n
    cfg = ReLUNetConfig(d=1, width=2, depth=3)
    trace = lip_bound(cfg)
    rng = np.random.default_rng(3)
    npar = param_count(1, 2, 3)
    X = input_grid(cfg)
    last = 2 * 3 + 2 * 3  # entries of A3 (1x2) + bias start after shared prefix
    cap = (1 + 2) * 2 ** 2 * 2 + 1  # (d+2) W^{n-1} * W + 1
    worst = 0.0
    for _ in range(300):
        y = rng.uniform(-1, 1, size=npar)
        y2 = y.copy()
        y2[-3:] = rng.uniform(-1, 1, size=3)  # A_n entries and bias
        sep = float(np.abs(y - y2).max())
        if sep == 0:
            continue
        va = np.array([forward(cfg, y, x) for x in X[::16]])
        vb = np.array([forward(cfg, y2, x) for x in X[::16]])
        worst = max(worst, float(np.abs(va - vb).max()) / sep)
    assert worst <= cap
    assert cap < trace.final


def test_grid_shapes():
    assert input_grid(ReLUNetConfig(d=1, width=2, depth=1)).shape == (256, 1)
    assert input_grid(ReLUNetConfig(d=2, width=2, depth=1)).shape == (256, 2)
    assert input_grid(ReLUNetConfig(d=3, width=2, depth=1, grid=4)).shape == (64, 3)


@pytest.mark.parametrize("seed", range(6))
def test_batched_forward_matches_pointwise_forward(monkeypatch, seed):
    # every row and grid point of the batched pass equals the per-point net.  With blocks of 4 rows, T = 11 spans
    # three blocks and the last one is ragged.  d = 2 on a 7-point grid gives
    # P = 49, so rows of P float64 entries (392 B) do not tile 4 KiB pages.
    rng = np.random.default_rng(seed)
    cfgs = [ReLUNetConfig(d=int(rng.integers(1, 4)), width=int(rng.integers(2, 4)),
                          depth=int(rng.integers(1, 6)), grid=3) for _ in range(5)]
    cfgs.append(ReLUNetConfig(d=2, width=int(rng.integers(2, 4)),
                              depth=int(rng.integers(1, 6)), grid=7))
    for cfg in cfgs:
        X = input_grid(cfg)
        npar = param_count(cfg.d, cfg.width, cfg.depth)
        pool = rng.uniform(-1, 1, size=(12, npar))
        for block in (spaces.BLOCK_ELEMS, 4 * cfg.width * X.shape[0]):
            monkeypatch.setattr(spaces, "BLOCK_ELEMS", block)
            for ys in (pool[:0], pool[:1], pool[:6], pool[::3], pool[:11]):  # strided 4
                out, _ = _batched_forward(cfg, ys, X)
                assert out.shape == (ys.shape[0], X.shape[0])
                for t, y in enumerate(ys):
                    want = [forward(cfg, y, x) for x in X]
                    assert np.allclose(out[t], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape,grid", [((1, 2, 3), 3), ((2, 3, 2), 7), ((3, 3, 5), None)])
def test_forward_rows_do_not_depend_on_blocking(monkeypatch, shape, grid):
    # 2.5 blocks at the real BLOCK_ELEMS give the same bits as one row per
    # call, and the same bits and layer maxima as one block
    cfg = ReLUNetConfig(*shape, grid=grid)
    X = input_grid(cfg)
    T = 5 * spaces.BLOCK_ELEMS // (2 * cfg.width * X.shape[0])
    ys = np.random.default_rng(T).uniform(-1, 1, size=(T, param_count(*shape)))
    out, layer_max = _batched_forward(cfg, ys, X)
    rows = [_batched_forward(cfg, y[None], X)[0] for y in ys[::7]]
    assert np.array_equal(out[::7], np.vstack(rows))
    monkeypatch.setattr(spaces, "BLOCK_ELEMS", T * cfg.width * X.shape[0])
    one, one_max = _batched_forward(cfg, ys, X)
    assert np.array_equal(out, one) and layer_max == one_max


def test_verify_lipschitz_memory_does_not_grow_with_the_chunk():
    # unblocked, two (T, W, P) buffers per pass and two chunks' outputs
    # peaked at about 20 MB here
    tracemalloc.start()
    try:
        verify_lipschitz(ReLUNetConfig(3, 3, 5), seed=1, trials=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10 ** 6


@pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 2)])
def test_verify_lipschitz_does_not_depend_on_the_worker_count(monkeypatch, shape):
    # 8 workers exceed the chunks of every trial count here; a short switch
    # interval makes the threads interleave often
    cfg = ReLUNetConfig(*shape)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for trials in (1, 511, 512, 513, 1030, 4096):
            results = []
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(relunet, "worker_count", lambda: workers)
                results.append(verify_lipschitz(cfg, seed=trials, trials=trials))
            one = results[0]
            for res in results[1:]:
                assert repr(res.max_ratio) == repr(one.max_ratio)
                assert res.layer_max_observed == one.layer_max_observed
                assert res.layer_bound_ok == one.layer_bound_ok and res.passed == one.passed
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("chunk", [0, 1, 2])
def test_worker_error_reaches_the_caller_and_no_thread_outlives_it(monkeypatch, chunk):
    # chunk 0 runs on the calling thread, chunks 1 and 2 on the other two
    cfg = ReLUNetConfig(d=2, width=2, depth=2)
    npar = param_count(2, 2, 2)
    first = np.random.default_rng(5 ^ chunk).uniform(-1.0, 1.0, size=(512, npar))[0]
    real = relunet._batched_forward

    def failing(cfg, ys, X, ws=None):
        if np.array_equal(ys[0], first):
            raise FloatingPointError(f"chunk {chunk}")
        return real(cfg, ys, X, ws)

    monkeypatch.setattr(relunet, "_batched_forward", failing)
    monkeypatch.setattr(relunet, "worker_count", lambda: 3)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"chunk {chunk}"):
        verify_lipschitz(cfg, seed=5, trials=1500)
    assert threading.active_count() == before


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_verify_records_one_span_from_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack per process, so worker threads must
    # call nothing it patches
    tracing = _load_tracing()
    monkeypatch.setattr(relunet, "worker_count", lambda: 2)
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(lipwidth, tracer)
    patcher.install()
    try:
        res = lipwidth.relunet.verify_lipschitz(ReLUNetConfig(2, 2, 2), seed=3, trials=1100)
    finally:
        patcher.restore()
    assert res.passed
    assert [rec[0] for rec in tracer.spans] == ["relunet.verify"]
    assert tracer.counts["relunet.pairs"] == 1100
    for i, (_, start, end, parent, _, _) in enumerate(tracer.spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_verify_lipschitz_memory_with_two_workers(monkeypatch):
    # both workers' buffers count: each holds one chunk's draws and one workspace
    monkeypatch.setattr(relunet, "worker_count", lambda: 2)
    tracemalloc.start()
    try:
        verify_lipschitz(ReLUNetConfig(3, 3, 5), seed=1, trials=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10 ** 6


# (d, width, depth), seed, trials, max_ratio, layer_max_observed as recorded
# with one allocating batched matmul per layer; trials over 512 span chunks.
_VERIFY_GOLDEN = [
    ((1, 2, 1), 1, 600, 2.547411891156039,
     (1.9525804230572321,)),
    ((1, 3, 3), 2, 700, 2.8588471426664377,
     (1.9580253636059708, 3.413023581178612, 3.1944190892022597)),
    ((2, 2, 2), 3, 513, 1.9290559155079243,
     (2.8829521573566277, 3.0030707101722918)),
    ((2, 3, 4), 4, 300, 2.3623215776846918,
     (2.846290378205837, 4.536550183417542, 5.076600287185214,
      4.141181898681719)),
    ((3, 2, 5), 5, 256, 1.5080566264433628,
     (2.9964247595122977, 3.5936994666960107, 4.276311665762318,
      2.5338115000025696, 3.43813423138835)),
    ((3, 3, 3), 6, 1030, 2.8451307108422883,
     (3.457844734467842, 4.739463941713235, 5.293060509383285)),
    ((1, 2, 5), 7, 200, 1.9699007193416374,
     (1.8777005798207766, 2.2168407809592674, 2.285543113860514,
      2.0434123746756874, 2.2408988648420696)),
    ((2, 3, 1), 8, 100, 2.3388035413514427,
     (2.640830828282649,)),
]


@pytest.mark.parametrize("shape,seed,trials,ratio,layers", _VERIFY_GOLDEN)
def test_verify_lipschitz_golden(shape, seed, trials, ratio, layers):
    res = verify_lipschitz(ReLUNetConfig(*shape), seed=seed, trials=trials)
    assert repr(res.max_ratio) == repr(ratio)
    assert res.layer_max_observed == layers

