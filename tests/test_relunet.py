import importlib.util
import sys
from fractions import Fraction
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
    input_grid,
    layer_output_bound,
    layer_slices,
    lip_bound,
    param_count,
    verify_lipschitz,
)
from lipwidth.spaces import PreconditionError
from oracles import closed_form_constant, exact_relu_constant, forward, split_params


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


# (d, width, depth) -> (C_n, G*), worked out from the two recursions
_EXACT_CONSTANTS = {(1, 2, 3): (95, 81), (2, 3, 3): (418, 358), (1, 2, 5): (575, 513),
                    (3, 3, 5): (7168, 6379), (3, 3, 1): (28, 25)}
# the relu-sweep benchmark's shapes
_SWEEP = [(d, w, depth) for d in (1, 2, 3) for w in (2, 3) for depth in range(1, 6)]


def _hidden_bounds(cfg):
    """H_0 = d + 1 and H_j = W H_{j-1} + 1: each hidden unit's largest output."""
    H = [cfg.d + 1]
    for _ in range(cfg.depth - 1):
        H.append(cfg.width * H[-1] + 1)
    return H


def test_exact_constant_values_and_order():
    for shape, (c_n, g_star) in _EXACT_CONSTANTS.items():
        trace = lip_bound(ReLUNetConfig(*shape))
        assert (trace.final, trace.exact) == (c_n, g_star)
    for d in (1, 2, 3, 7):
        for w in (2, 3, 5):
            for n in (1, 2, 5, 9, 40):
                cfg = ReLUNetConfig(d=d, width=w, depth=n)
                trace = lip_bound(cfg)
                assert trace.exact == exact_relu_constant(cfg)
                assert trace.exact <= trace.final < trace.coarse
                # each H_j stays within the layer bound the audit checks
                assert all(h <= b for h, b in zip(_hidden_bounds(cfg), trace.output_bounds))


def _corner_quotient(cfg, t: Fraction) -> Fraction:
    """(Phi(1) - Phi(1 - t 1)) / t at the input 1, in exact arithmetic.  With
    every parameter equal to c, every unit of a layer holds one value, and
    near c = 1 every preactivation is positive, so no ReLU clips."""
    def phi(c):
        h = max(c * cfg.d + c, 0)
        for _ in range(cfg.depth - 1):
            h = max(c * cfg.width * h + c, 0)
        return c * cfg.width * h + c

    return (phi(Fraction(1)) - phi(1 - t)) / t


@pytest.mark.parametrize("shape", [(1, 2, 1), (1, 2, 3), (2, 3, 2), (3, 2, 4), (3, 3, 5)])
def test_corner_quotient_tends_to_the_exact_constant(shape):
    cfg = ReLUNetConfig(*shape)
    g_star = lip_bound(cfg).exact
    gaps = [g_star - _corner_quotient(cfg, Fraction(1, 2 ** k)) for k in (4, 10, 20, 30)]
    assert all(gap > 0 for gap in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] * 2 ** 30 < 10 * g_star ** 2  # O(t)
    # the float pass over the grid reads the same quotient at 2^-20
    ratio, _ = relunet.corner_ratio(cfg, input_grid(cfg))
    assert ratio == pytest.approx(float(_corner_quotient(cfg, Fraction(1, 2 ** 20))), rel=1e-9)
    assert g_star - 1 < ratio <= g_star


@pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 2), (3, 3, 5), (1, 3, 4)])
def test_sampled_pairs_never_exceed_the_exact_constant(shape):
    # uniform pairs, and pairs within 10^-2 of the corner, where the ratio is largest
    cfg = ReLUNetConfig(*shape)
    g_star = lip_bound(cfg).exact
    X = input_grid(cfg)
    best, _ = relunet._falsify_chunks(cfg, np.random.SeedSequence(3).spawn(2), 1024, X,
                                      range(2))
    assert best <= g_star
    rng = np.random.default_rng(4)
    npar = param_count(*shape)
    ya = 1.0 - 0.01 * rng.uniform(size=(256, npar))
    yb = 1.0 - 0.01 * rng.uniform(size=(256, npar))
    out, _ = _batched_forward(cfg, np.vstack([ya, yb]), X)
    ratios = np.abs(out[:256] - out[256:]).max(axis=1) / np.abs(ya - yb).max(axis=1)
    assert float(ratios.max()) <= g_star


@pytest.mark.parametrize("declare", ["G* - 1", "0.8 C_n"])
def test_relu_verify_refutes_a_smaller_declared_constant(monkeypatch, declare):
    # mutation gate: with the constant declared below G*, relu-verify (and
    # its recheck) must fail on every shape of the relu-sweep benchmark
    from lipwidth.cli import recheck, run

    real = relunet.lip_bound

    def declared(cfg):
        trace = real(cfg)
        return replace(trace, exact=trace.exact - 1 if declare == "G* - 1" else 0.8 * trace.final)

    monkeypatch.setattr(relunet, "lip_bound", declared)
    for d, w, depth in _SWEEP:
        report = run({"command": "relu-verify", "seed": 1,
                      "params": {"d": d, "width": w, "depth": depth, "trials": 256}})
        assert not report["passed"], (d, w, depth)
        assert not recheck(report["certificates"][0], None), (d, w, depth)


def test_layer_output_bound_formula():
    assert layer_output_bound(2, 3, 0) == 4
    assert layer_output_bound(2, 3, 4) == 4 * 81


def test_verify_lipschitz_passes():
    cfg = ReLUNetConfig(d=1, width=2, depth=3)
    res = verify_lipschitz(cfg, seed=11, trials=2000)
    assert res.passed and res.layer_bound_ok
    assert res.max_ratio <= res.exact < res.bound
    assert (res.exact, res.bound) == (81, 95)


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
    seeds = np.random.SeedSequence(1).spawn(3)
    _, second = relunet._falsify_chunks(cfg, seeds, 1100, input_grid(cfg), range(1, 3, 2))
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
def test_batched_forward_matches_pointwise_forward(seed):
    # every row and grid point of the batched pass equals the per-point net,
    # for none, one, several and strided rows.  d = 2 on a 7-point grid gives
    # an odd P = 49.
    rng = np.random.default_rng(seed)
    cfgs = [ReLUNetConfig(d=int(rng.integers(1, 4)), width=int(rng.integers(2, 4)),
                          depth=int(rng.integers(1, 6)), grid=3) for _ in range(5)]
    cfgs.append(ReLUNetConfig(d=2, width=int(rng.integers(2, 4)),
                              depth=int(rng.integers(1, 6)), grid=7))
    for cfg in cfgs:
        X = input_grid(cfg)
        npar = param_count(cfg.d, cfg.width, cfg.depth)
        pool = rng.uniform(-1, 1, size=(12, npar))
        for ys in (pool[:0], pool[:1], pool[:6], pool[::3], pool[:11]):  # strided 4
            out, _ = _batched_forward(cfg, ys, X)
            assert out.shape == (ys.shape[0], X.shape[0])
            for t, y in enumerate(ys):
                want = [forward(cfg, y, x) for x in X]
                assert np.allclose(out[t], want, rtol=0, atol=1e-12)


def _unpadded_forward(cfg, ys, X):
    """The batched pass with fresh arrays and layer 0 as the plain
    (T W, d) @ (d, P) product: at d = 1 an inner dimension of 1."""
    slices = layer_slices(cfg)
    a, b, rows, cols = slices[0]
    T = ys.shape[0]
    h = np.matmul(ys[:, a].reshape(T * rows, cols), X.T).reshape(T, rows, -1)
    layer_max = []
    for j, (a, b, rows, cols) in enumerate(slices[:-1]):
        if j:
            h = np.matmul(ys[:, a].reshape(T, rows, cols), h)
        h = np.maximum(h + ys[:, b][:, :, None], 0.0)
        layer_max.append(float(h.max(initial=0.0)))
    a, b, rows, cols = slices[-1]
    return np.matmul(ys[:, a].reshape(T, rows, cols), h)[:, 0] + ys[:, b], layer_max


@pytest.mark.parametrize("shape", [(1, 2, 1), (1, 3, 3), (1, 2, 5)])
def test_one_input_forward_keeps_the_unpadded_bytes(shape):
    # at d = 1 layer 0 runs with a zero column against the grid's zero row;
    # outputs and layer maxima keep the bytes of the inner dimension 1, on
    # random rows, the corner pair, zero rows of both signs and negative
    # layer-0 weights at the grid point x = 0, where each product is -0.0
    cfg = ReLUNetConfig(*shape)
    X = input_grid(cfg)
    assert X[0, 0] == 0.0
    npar = param_count(*shape)
    a, b, _, _ = layer_slices(cfg)[0]
    rng = np.random.default_rng(sum(shape))
    negative = rng.uniform(-1, 1, size=(8, npar))
    negative[:, a] = -np.abs(negative[:, a])
    negative[4:, b] = -0.0  # a -0.0 sum would keep its sign past this bias
    ys = np.vstack([rng.uniform(-1, 1, size=(40, npar)), np.ones(npar),
                    np.full(npar, 1.0 - relunet.CORNER_STEP), np.zeros((2, npar)),
                    np.full((2, npar), -0.0), negative])
    out, layer_max = _batched_forward(cfg, ys, X)
    want, want_max = _unpadded_forward(cfg, ys, X)
    assert out.tobytes() == want.tobytes()
    assert repr(layer_max) == repr(want_max)
    for i in range(0, ys.shape[0], 5):  # and row by row
        assert _batched_forward(cfg, ys[i:i + 5], X)[0].tobytes() == want[i:i + 5].tobytes()


@pytest.mark.parametrize("shape,grid", [((1, 2, 3), 3), ((2, 3, 2), 7), ((3, 3, 5), None)])
def test_forward_rows_do_not_depend_on_blocking(monkeypatch, shape, grid):
    # the falsifier's pairs go through the forward pass in blocks; one pair,
    # three pairs and the default number per block give the same ratio and
    # layer maxima, over a full chunk and a ragged one
    cfg = ReLUNetConfig(*shape, grid=grid)
    X = input_grid(cfg)
    seeds = np.random.SeedSequence(sum(shape)).spawn(2)
    per_pair = 2 * cfg.width * X.shape[0]
    results = []
    for block in (spaces.BLOCK_ELEMS, per_pair, 3 * per_pair):
        monkeypatch.setattr(spaces, "BLOCK_ELEMS", block)
        best, seen = relunet._falsify_chunks(cfg, seeds, 600, X, range(2))
        results.append((repr(best), repr(seen)))
    assert spaces.BLOCK_ELEMS // per_pair == 3
    assert results[1:] == results[:1] * 2


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
    seed = np.random.SeedSequence(5).spawn(3)[chunk]
    first = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(512, npar))[0]
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
# with one allocating batched matmul per layer, when chunk i drew from the
# integer seed ``seed ^ i`` and no corner pair was added; trials over 512
# span chunks.  The sampled pairs' kernel still gives them on those streams.
_KERNEL_GOLDEN = [
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


@pytest.mark.parametrize("shape,seed,trials,ratio,layers", _KERNEL_GOLDEN)
def test_verify_lipschitz_golden(shape, seed, trials, ratio, layers):
    # the forward pass and the per-chunk reduction, on the recorded streams
    cfg = ReLUNetConfig(*shape)
    chunks = -(-trials // relunet.VERIFY_CHUNK)
    best, seen = relunet._falsify_chunks(cfg, [seed ^ i for i in range(chunks)], trials,
                                         input_grid(cfg), range(chunks))
    assert repr(best) == repr(ratio)
    assert tuple(seen) == layers


# (d, width, depth), seed, trials, then the sampled pairs' largest ratio and
# layer maxima (chunk i seeded by the i-th child of SeedSequence(seed)), and
# max_ratio, the corner pair's ratio; trials over 512 span chunks.
_VERIFY_GOLDEN = [
    ((1, 2, 1), 1, 600, 3.687496556178342,
     (1.9728317499708778,),
     8.999996185302734),
    ((1, 3, 3), 2, 700, 2.026247560081189,
     (1.9795411893897839, 3.953870601939638, 3.441749418499346),
     249.999662399292),
    ((2, 2, 2), 3, 513, 2.0463751044681806,
     (2.735876619275762, 3.032694925574918),
     40.99996376037598),
    ((2, 3, 4), 4, 300, 2.5901972756083245,
     (2.6910665914034313, 3.2670376016803413, 3.5794265915665022, 3.005251343258566),
     1356.9974994659424),
    ((3, 2, 5), 5, 256, 2.4028358503801273,
     (3.165666845643183, 2.9372180927445752, 3.6212071634573206, 3.0856779664711107, 5.765551187110919),
     896.9979572296143),
    ((3, 3, 3), 6, 1030, 3.6075725855081897,
     (3.500184966747653, 4.620367721537914, 7.270620787815094),
     465.9993534088135),
    ((1, 2, 5), 7, 200, 1.569785311736954,
     (1.9136455868779836, 2.5201790285533825, 2.747587347729596, 3.058096719107267, 2.807372329857544),
     512.998872756958),
    ((2, 3, 1), 8, 100, 2.708639020920193,
     (2.6403392447504537,),
     18.999991416931152),
]


@pytest.mark.parametrize("shape,seed,trials,sampled,layers,ratio", _VERIFY_GOLDEN,
                         ids=[f"{d}-{w}-{n}-seed{seed}" for (d, w, n), seed, *_ in _VERIFY_GOLDEN])
def test_verify_lipschitz_spawned_golden(shape, seed, trials, sampled, layers, ratio):
    cfg = ReLUNetConfig(*shape)
    chunks = -(-trials // relunet.VERIFY_CHUNK)
    best, seen = relunet._falsify_chunks(cfg, np.random.SeedSequence(seed).spawn(chunks),
                                         trials, input_grid(cfg), range(chunks))
    assert repr(best) == repr(sampled)
    assert tuple(seen) == layers
    res = verify_lipschitz(cfg, seed=seed, trials=trials)
    assert repr(res.max_ratio) == repr(ratio)
    # the corner's activations are the hidden bounds H_j themselves
    assert res.layer_max_observed == tuple(float(h) for h in _hidden_bounds(cfg))

