"""Shipping gate: one test per release criterion, each timed against its
runtime budget.  Test names state the criterion; a PASS line with the
measured runtime is printed for the log.

The training-trend criterion is stochastic by nature; its dataset,
hyperparameters, and seeds are fixed here so the suite is reproducible
end to end.
"""

import math
import time

import numpy as np
import pytest

import wavecnn as w
from wavecnn import layers as L
from wavecnn import network as nw
from wavecnn.cli import main as cli_main
from wavecnn.filterbank import Family, get_wavelet, wavelet_names
from wavecnn.transform import Decomposition2D, dwt1d, dwt1d_vjp, dwt2d, \
    dwt2d_vjp, idwt2d, idwt2d_vjp

from reference import build_operator, gradcheck

ALL = wavelet_names()
_shared = {}


def _budget(name, t0, limit_s):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"{name} took {elapsed:.1f}s, budget {limit_s}s"
    print(f"PASS {name}: {elapsed:.2f}s (budget {limit_s}s)")


def test_criterion_1_filter_bank_identities():
    t0 = time.perf_counter()
    for name in ALL:
        spec = get_wavelet(name)
        assert abs(sum(spec.analysis_low) - math.sqrt(2)) < 1e-8, name
        assert abs(sum(spec.synthesis_low) - math.sqrt(2)) < 1e-8, name
        if spec.family is Family.ORTHOGONAL:
            low = np.array(spec.analysis_low)
            assert abs(low @ low - 1.0) < 1e-8, name
            for m in range(1, len(low) // 2 + 1):
                assert abs(low[2 * m:] @ low[:len(low) - 2 * m]) < 1e-8, name
        else:
            a, s = spec.analysis_low, spec.synthesis_low
            for m in range(-len(a), len(a) + 1):
                acc = sum(a[k] * s[k + 2 * m]
                          for k in range(len(a)) if 0 <= k + 2 * m < len(s))
                assert abs(acc - (1.0 if m == 0 else 0.0)) < 1e-8, (name, m)
    haar = get_wavelet("haar")
    c = 1.0 / math.sqrt(2.0)
    assert haar.analysis_high == (c, -c)
    assert w.derive_highpass(haar.analysis_low, 1) == haar.analysis_high
    _budget("criterion 1 (filter-bank suite)", t0, 1.0)


def test_criterion_2_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    haar = get_wavelet("haar")
    for h in range(4, 65, 2):
        for width in range(4, 65, 2):
            x = rng.standard_normal((h, width))
            back = idwt2d(dwt2d(x, haar), haar)
            assert np.max(np.abs(back - x)) < 1e-12, (h, width)
    n = 64
    for name in ALL:
        if name == "haar":
            continue
        spec = get_wavelet(name)
        margin = 2 * len(spec.analysis_low)
        op = build_operator(spec, n)
        # direct reconstruction-operator oracle: interior rows are identity
        R = op.L_syn.T @ op.L + op.H_syn.T @ op.H
        interior = slice(margin, n - margin)
        resid = np.abs(R - np.eye(n))[interior, :]
        assert resid.max() < 1e-10, name
        x = rng.standard_normal((n, n))
        back = idwt2d(dwt2d(x, spec), spec)
        err = np.abs(back - x)[interior, interior]
        assert err.max() < 1e-10, name
    _budget("criterion 2 (reconstruction suite)", t0, 10.0)


def test_criterion_3_gradients():
    t0 = time.perf_counter()
    eps = 1e-6

    def fd(fun, arr):
        g = np.zeros_like(arr)
        flat, out = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            fp = fun()
            flat[i] = keep - eps
            fm = fun()
            flat[i] = keep
            out[i] = (fp - fm) / (2 * eps)
        return g

    def rel(a, b):
        return float((np.abs(a - b)
                      / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))).max())

    rng = np.random.default_rng(1)
    for name in ALL:
        spec = get_wavelet(name)
        n = 32
        x = rng.standard_normal(n)
        wl, wh = rng.standard_normal((2, n // 2))
        analytic = dwt1d_vjp(wl, wh, spec, n)
        fd_g = fd(lambda: float(np.dot(dwt1d(x, spec)[0], wl)
                                + np.dot(dwt1d(x, spec)[1], wh)), x)
        assert rel(analytic, fd_g) < 1e-6, f"dwt1d vjp {name}"

        x2 = rng.standard_normal((12, 14))
        d0 = dwt2d(x2, spec)
        ws = [rng.standard_normal(b.shape) for b in d0.subbands()]
        analytic2 = dwt2d_vjp(
            Decomposition2D(*ws, original_shape=d0.original_shape), spec)
        fd2 = fd(lambda: sum(float((wb * b).sum()) for wb, b in
                             zip(ws, dwt2d(x2, spec).subbands())), x2)
        assert rel(analytic2, fd2) < 1e-6, f"dwt2d vjp {name}"

        wout = rng.standard_normal((12, 14))
        gsub = idwt2d_vjp(wout, spec)
        for band, gb in zip(d0.subbands(), gsub.subbands()):
            fd3 = fd(lambda: float((wout * idwt2d(d0, spec)).sum()), band)
            assert rel(gb, fd3) < 1e-6, f"idwt2d vjp {name}"

    def checked(layer, shape, seed=2):
        layer.init_params(np.random.default_rng(3), np.float64)
        x = np.random.default_rng(seed).standard_normal(shape)
        return gradcheck(layer, x, epsilon=eps,
                         rng=np.random.default_rng(seed + 1), max_coords=60)

    assert checked(L.Conv2d(3, 2, 3, 1), (2, 2, 6, 6)) < 1e-6
    assert checked(L.Conv2d(3, 2, 2, 2), (2, 2, 7, 7)) < 1e-6
    assert checked(L.BatchNorm2d(3), (4, 3, 5, 5)) < 1e-6
    assert checked(L.ReLU(), (2, 3, 4, 4)) < 1e-6
    assert checked(L.MaxPool2(), (2, 2, 6, 6)) < 1e-6
    assert checked(L.AvgPool2(), (2, 2, 6, 6)) < 1e-6
    assert checked(L.PadToEven(), (2, 2, 5, 5)) < 1e-6
    assert checked(L.Flatten(), (2, 3, 4, 4)) < 1e-6
    assert checked(L.Dense(12, 5), (3, 12)) < 1e-6
    for name in ALL:
        for kind in ("ll", "avg", "cat"):
            taps = len(get_wavelet(name).analysis_low)
            side = max(12, 2 * taps + 2)
            side += side % 2
            err = checked(L.WaveletDown(kind, name), (1, 2, side, side))
            assert err < 1e-6, f"WaveletDown {kind} {name}: {err:.2e}"
    _budget("criterion 3 (gradient suite)", t0, 60.0)


def test_criterion_4_metric_arithmetic():
    t0 = time.perf_counter()
    noise = {"gaussian": 87.15, "shot": 88.47, "impulse": 91.30}
    assert round(w.mean_ce(noise, "noise"), 2) == 88.97
    blur = dict(zip(("defocus", "glass", "motion", "zoom"),
                    (83.82, 91.43, 86.82, 88.70)))
    assert round(w.mean_ce(blur, "blur"), 2) == 87.69
    e = np.array([0.12, 0.2, 0.31, 0.4, 0.44])
    assert w.corruption_error(e, e) == 100.0
    _budget("criterion 4 (metric arithmetic)", t0, 5.0)


def test_criterion_5_madds_formulas():
    t0 = time.perf_counter()
    assert w.dwt2d_madds(2, 2, 1) == 36
    assert w.idwt2d_madds(2, 2, 1) == 39

    def chain(p, q, r):
        return p * r * (2 * q - 1)

    def oracle(m, n, c):
        return 4 * c * (chain(m // 2, m, n) + chain(m // 2, n, n // 2))

    for m in (2, 4, 6, 8):
        for n in (2, 4, 6, 8):
            for c in (1, 2):
                assert w.dwt2d_madds(m, n, c) == oracle(m, n, c), (m, n, c)
                assert w.idwt2d_madds(m, n, c) == oracle(n, m, c) + 3, (m, n, c)
    _budget("criterion 5 (madds formulas)", t0, 5.0)


def _denoise_trial_report():
    """Ten fixed-seed noisy trials; returns (mse pairs, digest of outputs)."""
    ii, jj = np.mgrid[0:64, 0:64] / 64.0
    clean = 0.5 + 0.25 * np.cos(2 * np.pi * ii) + 0.2 * np.sin(2 * np.pi * jj)
    cfg = w.DenoiseConfig("haar", 0.1)
    pairs = []
    digest = []
    for trial in range(10):
        rng = np.random.default_rng([42, trial])
        noisy = clean + rng.normal(0.0, 0.1, clean.shape)
        out = w.denoise_image(noisy, cfg)
        pairs.append((float(np.mean((noisy - clean) ** 2)),
                      float(np.mean((out - clean) ** 2))))
        digest.append(out.tobytes())
    return pairs, b"".join(digest)


def test_criterion_6_denoising():
    t0 = time.perf_counter()
    x = np.linspace(-3.0, 3.0, 1000)
    lam = 0.1
    expected = np.where(x > lam, x - lam, np.where(x < -lam, x + lam, 0.0))
    assert np.array_equal(w.soft_shrink(x, lam), expected)

    pairs, digest = _denoise_trial_report()
    improved = sum(1 for before, after in pairs if after < before)
    assert improved >= 9, f"denoising improved MSE in only {improved}/10 trials"
    _shared["denoise"] = (pairs, digest)
    _budget("criterion 6 (denoising)", t0, 5.0)


_TREND = dict(n_train=1200, n_val=400, noise=0.10, amplitude=0.12,
              data_seeds=(101, 202), epochs=8, seeds=(0, 1, 2))


def _write_trend_idx(tmp):
    train = w.synthetic_classification(_TREND["n_train"], classes=10,
                                       seed=_TREND["data_seeds"][0],
                                       noise=_TREND["noise"],
                                       amplitude=_TREND["amplitude"])
    val = w.synthetic_classification(_TREND["n_val"], classes=10,
                                     seed=_TREND["data_seeds"][1],
                                     noise=_TREND["noise"],
                                     amplitude=_TREND["amplitude"])
    paths = {}
    for stem, ds in (("train", train), ("val", val)):
        imgs = tmp / f"{stem}.images.idx"
        labs = tmp / f"{stem}.labels.idx"
        w.save_dataset(ds, imgs, labs)
        paths[stem] = (imgs, labs)
    return paths


def _train_one(mode, seed, train_ds, val_ds):
    wavelet = "haar" if mode == "dwt_ll" else ""
    model = nw.build_model(nw.mini_config(mode, wavelet, seed=seed))
    report = nw.train(model, train_ds,
                      nw.TrainConfig(epochs=_TREND["epochs"]), val=val_ds)
    noisy = w.corrupt_dataset(val_ds, "gaussian", 3, seed=9)
    return report, nw.evaluate(model, noisy)


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trend")
    t0 = time.perf_counter()
    paths = _write_trend_idx(tmp)
    train_ds = w.load_dataset(*paths["train"])
    val_ds = w.load_dataset(*paths["val"])
    assert len(np.unique(train_ds.labels)) == 10
    runs = {}
    for mode in ("max_pool", "dwt_ll"):
        for seed in _TREND["seeds"]:
            runs[(mode, seed)] = _train_one(mode, seed, train_ds, val_ds)
    return {"runs": runs, "elapsed": time.perf_counter() - t0,
            "train_ds": train_ds, "val_ds": val_ds}


def test_criterion_7_training_trend(trend_runs):
    t0 = time.perf_counter() - trend_runs["elapsed"]
    runs = trend_runs["runs"]
    for (mode, seed), (report, _) in runs.items():
        acc = report.val_accuracy[-1]
        assert acc >= 0.95, f"{mode} seed {seed}: clean val accuracy {acc:.3f}"
    mp = [runs[("max_pool", s)][1] for s in _TREND["seeds"]]
    ll = [runs[("dwt_ll", s)][1] for s in _TREND["seeds"]]
    assert np.mean(ll) <= np.mean(mp) + 0.01, (ll, mp)
    majority = sum(1 for a, b in zip(ll, mp) if a <= b)
    assert majority >= 2, (ll, mp)
    _budget("criterion 7 (training trend)", t0, 900.0)


def test_criterion_8_determinism(trend_runs):
    t0 = time.perf_counter()
    assert _denoise_trial_report() == _shared["denoise"]

    mode, seed = "dwt_ll", _TREND["seeds"][0]
    report0, err0 = trend_runs["runs"][(mode, seed)]
    report1, err1 = _train_one(mode, seed, trend_runs["train_ds"],
                               trend_runs["val_ds"])
    assert report1.to_csv() == report0.to_csv()
    assert report1.params_checksum == report0.params_checksum
    assert err1 == err0
    _budget("criterion 8 (determinism)", t0, 120.0)


def test_criterion_9_cli_round_trip(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (28, 32), dtype=np.uint8)
    src = tmp_path / "img.pgm"
    w.write_pgm(src, img)
    prefix = str(tmp_path / "band")
    assert cli_main(["transform", "--wavelet", "haar",
                     "--in", str(src), "--out-prefix", prefix]) == 0
    out = tmp_path / "back.pgm"
    assert cli_main(["idwt", "--wavelet", "haar", "--in-prefix", prefix,
                     "--shape", "28x32", "--out", str(out)]) == 0
    assert np.array_equal(w.read_pgm(out), img)

    arr = rng.standard_normal((5, 7)).astype(np.float32)
    path = tmp_path / "t.wtn"
    w.write_tensor(path, arr)
    back = w.read_tensor(path)
    assert back.tobytes() == arr.tobytes() and back.dtype == arr.dtype
    arr64 = rng.standard_normal((3, 2, 4))
    w.write_tensor(path, arr64)
    assert w.read_tensor(path).tobytes() == arr64.tobytes()
    _budget("criterion 9 (CLI round trip)", t0, 30.0)
