import numpy as np
import pytest

from hlstm.baselines import (
    ArModel,
    FfnnModel,
    ar_forecast,
    ar_forecast_batch,
    fit_ar,
    fit_ffnn,
    fit_lasso,
    select_ar_order,
    select_ar_orders,
)
from hlstm.errors import ValidationError

from oracles import (
    four_array_ffnn_fit,
    loop_ar_design,
    ols_fit,
    residual_lasso_fit,
    scalar_ar_forecast,
)


def lasso_problem(seed, n=80, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    y = 0.4 + X @ beta + rng.normal(0, 0.1, size=n)
    return X, y


class TestLasso:
    def test_lambda_zero_matches_ols(self):
        X, y = lasso_problem(0)
        model = fit_lasso(X, y, lam=0.0)
        b0, beta = ols_fit(X, y)
        assert abs(model.beta0 - b0) < 1e-8
        assert np.max(np.abs(model.beta - beta)) < 1e-8

    def test_full_shrinkage_at_large_lambda(self):
        X, y = lasso_problem(1)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        lam_max = np.max(np.abs(Xc.T @ yc)) / len(y)
        model = fit_lasso(X, y, lam=lam_max * 1.0001)
        assert np.array_equal(model.beta, np.zeros(X.shape[1]))
        assert model.beta0 == pytest.approx(y.mean(), abs=1e-12)

    def test_univariate_soft_threshold_closed_form(self):
        # single standardized predictor at the tuned lambda 0.002
        rng = np.random.default_rng(7)
        n = 200
        x = rng.normal(size=n)
        x = (x - x.mean()) / x.std()
        y = 0.05 * x + rng.normal(0, 0.02, size=n)
        y = y - y.mean()
        lam = 0.002
        z = (x @ y) / n
        expect = np.sign(z) * max(abs(z) - lam, 0.0)
        model = fit_lasso(x[:, None], y, lam=lam)
        assert abs(model.beta[0] - expect) < 1e-10

    def test_kkt_conditions_hold(self):
        for seed in range(5):
            X, y = lasso_problem(seed, n=120, d=8)
            lam = 0.05
            model = fit_lasso(X, y, lam=lam)
            resid = y - model.predict(X)
            corr = (X - X.mean(axis=0)).T @ resid / len(y)
            for j in range(X.shape[1]):
                if model.beta[j] != 0.0:
                    assert abs(abs(corr[j]) - lam) < 1e-5, (seed, j)
                else:
                    assert abs(corr[j]) <= lam + 1e-5, (seed, j)

    def test_l1_norm_monotone_in_lambda(self):
        X, y = lasso_problem(3)
        lams = [0.0, 0.01, 0.05, 0.1, 0.5]
        norms = [np.abs(fit_lasso(X, y, lam).beta).sum() for lam in lams]
        for a, b in zip(norms, norms[1:]):
            assert a >= b - 1e-12

    def test_stops_at_optimality_on_correlated_columns(self):
        # columns share one factor (pairwise correlation ~0.96): coordinate
        # descent creeps, and a small last step is far from the optimum
        rng = np.random.default_rng(0)
        n, d = 200, 5
        X = rng.normal(size=(n, 1)) + 0.2 * rng.normal(size=(n, d))
        y = 0.3 + X @ rng.normal(size=d) + rng.normal(0, 0.1, size=n)
        lam = 0.01
        model = fit_lasso(X, y, lam=lam)
        assert model.converged
        corr = (X - X.mean(axis=0)).T @ (y - model.predict(X)) / n
        kkt = np.where(model.beta != 0.0,
                       np.abs(corr - lam * np.sign(model.beta)),
                       np.maximum(np.abs(corr) - lam, 0.0))
        assert kkt.max() < 1e-10  # the default tol

        ols = fit_lasso(X, y, lam=0.0)
        b0, beta = ols_fit(X, y)
        assert abs(ols.beta0 - b0) < 1e-8
        assert np.max(np.abs(ols.beta - beta)) < 1e-8

        capped = fit_lasso(X, y, lam=lam, max_sweeps=1)
        assert not capped.converged
        assert capped.n_sweeps == 1

    @pytest.mark.parametrize("n, d, spread, lam, seed, max_sweeps", [
        (200, 5, 0.2, 0.01, 0, 10_000),
        (2_000, 11, 0.5, 0.002, 1, 10_000),
        (2_000, 11, 0.5, 0.0, 2, 10_000),
        (2_000, 11, 0.5, 0.0, 2, 50),           # stopped by max_sweeps
        (46_720, 11, 0.7, 0.002, 3, 10_000),    # criterion 6's shared fit size
        (46_720, 11, 0.7, 0.0, 3, 10_000),
    ])
    def test_gram_form_equals_residual_form_oracle(self, n, d, spread, lam, seed, max_sweeps):
        # Columns share one factor; a smaller spread correlates them more.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 1)) + spread * rng.normal(size=(n, d))
        y = 0.3 + X @ rng.normal(size=d) * 0.05 + rng.normal(0, 0.05, size=n)
        model = fit_lasso(X, y, lam, max_sweeps=max_sweeps)
        beta0, beta, converged, n_sweeps = residual_lasso_fit(X, y, lam, max_sweeps=max_sweeps)
        assert np.max(np.abs(model.beta - beta)) <= 1e-12
        assert abs(model.beta0 - beta0) <= 1e-12
        assert (model.converged, model.n_sweeps) == (converged, n_sweeps)
        assert converged == (max_sweeps > 50)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            fit_lasso(np.zeros((1, 2)), np.zeros(1), 0.0)
        bad = np.ones((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            fit_lasso(bad, np.ones(5), 0.0)
        with pytest.raises(ValidationError):
            fit_lasso(np.ones((5, 2)), np.ones(5), -0.1)


def simulate_arx(seed, n, alpha=0.8, c=0.02, gamma=0.3, noise=0.05):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    theta = np.zeros(n)
    for t in range(1, n):
        theta[t] = c + alpha * theta[t - 1] + gamma * x[t] + rng.normal(0, noise)
    return theta, x[:, None]


class TestNonFiniteInputs:
    """Every fit rejects a NaN or inf in what it reads with a ValidationError
    naming the argument, before any arithmetic meets it."""

    @staticmethod
    def poisoned(a, at, value):
        a = a.copy()
        a.flat[at] = value
        return a

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["X", "y"])
    @pytest.mark.parametrize("fit", [
        lambda X, y: fit_lasso(X, y, lam=0.01),
        lambda X, y: fit_ffnn(X, y, hidden_size=4, max_epochs=5),
    ], ids=["lasso", "ffnn"])
    def test_lasso_and_ffnn(self, fit, arg, value):
        rng = np.random.default_rng(12)
        args = {"X": rng.normal(size=(40, 3)), "y": rng.normal(size=40)}
        args[arg] = self.poisoned(args[arg], 17, value)
        with pytest.raises(ValidationError, match=f"NaN or inf in {arg}$"):
            fit(**args)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["theta", "X_exog"])
    def test_ar_reads_theta_where_observed_and_writes_nothing(self, capfd, arg, value):
        theta, x = simulate_arx(13, 200)
        mask = np.ones(200, dtype=bool)
        args = {"theta": theta, "mask": mask, "X_exog": x, "p": 1}
        args[arg] = self.poisoned(args[arg], 50, value)
        with pytest.raises(ValidationError, match=f"NaN or inf in {arg}$"):
            fit_ar(**args)
        assert capfd.readouterr() == ("", "")
        if arg == "theta":   # an unobserved step is never read
            mask[50] = False
            # AR(1) rows t = 1..199 need theta_t and theta_{t-1}: t = 50, 51 drop
            assert fit_ar(**args).n_rows == 199 - 2


class TestAr:
    def test_p_zero_reduces_to_ols_on_exog(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 2))
        y = 0.1 + X @ np.array([0.5, -0.2]) + rng.normal(0, 0.02, size=300)
        mask = np.ones(300, dtype=bool)
        model = fit_ar(y, mask, X, p=0)
        b0, beta = ols_fit(X, y)
        assert abs(model.c - b0) < 1e-10
        assert np.max(np.abs(model.gamma - beta)) < 1e-10
        assert model.p == 0

    def test_recovers_ar1_coefficient(self):
        theta, _ = simulate_arx(13, 1000, gamma=0.0)
        mask = np.ones(1000, dtype=bool)
        model = fit_ar(theta, mask, None, p=1)
        assert abs(model.alpha[0] - 0.8) <= 0.02

    def test_order_sweep_prefers_true_order(self):
        theta, X = simulate_arx(9, 1000)
        mask = np.ones(1000, dtype=bool)
        model, best_p, rmse_by_p = select_ar_order(
            theta[:700], mask[:700], X[:700],
            theta[700:], mask[700:], X[700:],
            warmup=theta[695:700], p_max=5)
        assert best_p == 1
        assert rmse_by_p[0] > rmse_by_p[1]

    def test_rows_with_unobserved_lags_dropped(self):
        theta, X = simulate_arx(13, 60)
        mask = np.ones(60, dtype=bool)
        mask[::3] = False
        poisoned = theta.copy()
        poisoned[~mask] = 999.0  # must never be read
        model = fit_ar(poisoned, mask, X, p=1)
        clean_rows = sum(1 for t in range(1, 60) if mask[t] and mask[t - 1])
        assert model.n_rows == clean_rows
        assert np.all(np.abs(model.alpha) < 5)

    def test_under_determined_names_pixel(self):
        theta = np.zeros(10)
        mask = np.zeros(10, dtype=bool)
        mask[3] = True
        with pytest.raises(ValidationError, match="px_7_3"):
            fit_ar(theta, mask, None, p=2, label="px_7_3")

    @pytest.mark.parametrize("gap_every,first_rejected", [(3, 2), (2, 1)])
    def test_sweep_stops_at_first_rejected_order(self, monkeypatch, gap_every,
                                                 first_rejected):
        # Every gap_every-th day unobserved: no run of gap_every observed
        # days exists, so no order >= gap_every - 1 has a usable row.
        theta, X = simulate_arx(17, 400)
        mask = np.ones(400, dtype=bool)
        mask[::gap_every] = False
        args = (theta[:300], mask[:300], X[:300], theta[300:], mask[300:],
                X[300:], theta[295:300])

        # The full sweep: every order fitted, rejected ones scored inf.
        expect = {}
        fitted = {}
        for p in range(6):
            try:
                fitted[p] = fit_ar(*args[:3], p)
            except ValidationError:
                expect[p] = float("inf")
                continue
            err = (ar_forecast(fitted[p], X[300:], theta[295:300])
                   - theta[300:])[mask[300:]]
            expect[p] = float(np.sqrt(np.mean(err * err)))
        assert min(p for p in expect if expect[p] == float("inf")) == first_rejected

        calls = []

        def counting_fit_ar(*a, **kw):
            calls.append(a[3])
            return fit_ar(*a, **kw)

        monkeypatch.setattr("hlstm.baselines.fit_ar", counting_fit_ar)
        model, best_p, rmse_by_p = select_ar_order(*args, p_max=5)
        assert calls == list(range(first_rejected + 1))
        assert rmse_by_p == expect
        floor = min(expect.values())
        assert best_p == min(p for p in fitted if expect[p] <= floor * 1.02)
        assert model.c == fitted[best_p].c
        assert np.array_equal(model.alpha, fitted[best_p].alpha)
        assert np.array_equal(model.gamma, fitted[best_p].gamma)


class TestArForecast:
    def test_p_zero_is_pure_exog_function(self):
        model = ArModel(c=0.1, alpha=np.zeros(0), gamma=np.array([2.0]), order=0)
        X = np.array([[0.0], [1.0], [-1.0]])
        out = ar_forecast(model, X, warmup=np.zeros(0))
        assert np.array_equal(out, np.array([0.1, 2.1, -1.9]))

    def test_unit_root_holds_state(self):
        model = ArModel(c=0.0, alpha=np.array([1.0]), gamma=np.zeros(0), order=1)
        out = ar_forecast(model, None, warmup=np.array([0.3]), horizon=50)
        assert np.array_equal(out, np.full(50, 0.3))

    def test_stable_pole_decays_to_fixed_point(self):
        c, a = 0.06, 0.7
        model = ArModel(c=c, alpha=np.array([a]), gamma=np.zeros(0), order=1)
        out = ar_forecast(model, None, warmup=np.array([0.9]), horizon=400)
        fp = c / (1 - a)
        assert abs(out[-1] - fp) < 1e-12
        # closed form of the recursion: fp + (w - fp) * a^(t+1)
        t = np.arange(50)
        expect = fp + (0.9 - fp) * a ** (t + 1)
        assert np.max(np.abs(out[:50] - expect)) < 1e-12

    def test_short_warmup_rejected(self):
        model = ArModel(c=0.0, alpha=np.array([0.5, 0.1]), gamma=np.zeros(0), order=2)
        with pytest.raises(ValidationError):
            ar_forecast(model, None, warmup=np.array([0.3]), horizon=5)

    def test_batch_matches_scalar_recursion(self):
        rng = np.random.default_rng(17)
        models = []
        n_pix, T = 7, 40
        X = rng.normal(size=(n_pix, T, 2))
        warm = rng.uniform(0.1, 0.4, size=(n_pix, 5))
        for k in range(n_pix):
            p = k % 3
            models.append(ArModel(c=0.01 * k, alpha=rng.uniform(-0.4, 0.8, size=p),
                                  gamma=rng.normal(size=2), order=p))
        batch = ar_forecast_batch(models, X, warm)
        for k in range(n_pix):
            single = ar_forecast(models[k], X[k], warm[k])
            assert np.max(np.abs(batch[k] - single)) < 1e-12, k


def gappy_mask(rng, T, kind):
    """Observation masks with the gap patterns the pipeline meets."""
    if kind == "dense":
        return np.ones(T, dtype=bool)
    if kind == "random":
        return rng.uniform(size=T) > 0.25
    if kind == "every_other":      # no two consecutive days: only p = 0 fits
        mask = np.ones(T, dtype=bool)
        mask[::2] = False
        return mask
    if kind == "every_third":
        mask = np.ones(T, dtype=bool)
        mask[::3] = False
        return mask
    mask = np.ones(T, dtype=bool)  # "blocks": long outages
    for start in rng.integers(0, T - 20, size=4):
        mask[start:start + 20] = False
    return mask


GAP_KINDS = ("dense", "random", "every_other", "every_third", "blocks", "random")


class TestArKernels:
    @pytest.mark.parametrize("p", range(6))
    def test_fit_equals_lstsq_on_loop_built_rows(self, p):
        rng = np.random.default_rng(40 + p)
        for kind in ("dense", "random", "every_third", "blocks"):
            T = 240
            theta = rng.normal(size=T)
            mask = gappy_mask(rng, T, kind)
            X = rng.normal(size=(T, 2))
            A, b = loop_ar_design(theta, mask, X, p)
            if b.size < p + 4:
                with pytest.raises(ValidationError):
                    fit_ar(theta, mask, X, p)
                continue
            coef, *_ = np.linalg.lstsq(A, b, rcond=None)
            model = fit_ar(theta, mask, X, p)
            assert model.n_rows == b.size
            assert model.c == coef[0], kind
            assert np.array_equal(model.alpha, coef[1:1 + p]), kind
            assert np.array_equal(model.gamma, coef[1 + p:]), kind

    def test_lockstep_recursion_matches_scalar_oracle(self):
        rng = np.random.default_rng(23)
        n_pix, T = 6, 120
        X = rng.normal(size=(n_pix, T, 3))
        warm = rng.uniform(0.1, 0.4, size=(n_pix, 5))
        models = [ArModel(c=0.02 * k, alpha=rng.uniform(-0.3, 0.5, size=k),
                          gamma=rng.normal(size=3), order=k) for k in range(n_pix)]
        batch = ar_forecast_batch(models, X, warm)
        for k, m in enumerate(models):
            expect = scalar_ar_forecast(m.c, m.alpha, m.gamma, X[k], warm[k], T)
            assert np.max(np.abs(batch[k] - expect)) < 1e-12, k
            assert np.max(np.abs(ar_forecast(m, X[k], warm[k]) - expect)) < 1e-12, k

    def test_batched_sweep_equals_per_pixel_sweep(self):
        rng = np.random.default_rng(31)
        n_pix, T_fit, T_eval = len(GAP_KINDS), 300, 160
        theta_fit, mask_fit, X_fit = [], [], []
        for kind in GAP_KINDS:
            theta, X = simulate_arx(int(rng.integers(1000)), T_fit)
            theta_fit.append(theta)
            mask_fit.append(gappy_mask(rng, T_fit, kind))
            X_fit.append(X)
        theta_eval = rng.uniform(0.1, 0.4, size=(n_pix, T_eval))
        mask_eval = rng.uniform(size=(n_pix, T_eval)) > 0.3
        X_eval = rng.normal(size=(n_pix, T_eval, 1))
        warm = rng.uniform(0.1, 0.4, size=(n_pix, 5))
        labels = [f"px_{k}" for k in range(n_pix)]
        batched = select_ar_orders(theta_fit, mask_fit, X_fit, theta_eval,
                                   mask_eval, X_eval, warm, p_max=5, labels=labels)
        for k in range(n_pix):
            model, best_p, rmse_by_p = select_ar_order(
                theta_fit[k], mask_fit[k], X_fit[k], theta_eval[k], mask_eval[k],
                X_eval[k], warm[k], p_max=5, label=labels[k])
            b_model = batched[k]
            assert b_model.order == best_p, labels[k]
            assert b_model.order_rmse == {str(p): v for p, v in rmse_by_p.items()}, labels[k]
            assert b_model.c == model.c
            assert np.array_equal(b_model.alpha, model.alpha)
            assert np.array_equal(b_model.gamma, model.gamma)
        # the every-other-day pixel rejects every order >= 1
        rmse = batched[2].order_rmse
        assert rmse == {"0": rmse["0"], **{str(p): float("inf") for p in range(1, 6)}}
        assert batched[2].order == 0

    @pytest.mark.parametrize("fill", [np.nan, 999.0], ids=["nan", "999"])
    def test_sweep_reads_only_observed_targets(self, fill):
        # Unobserved fit and eval targets never enter a fit or a score: NaN or
        # 999.0 there gives the models of zero-filled targets, bit for bit.
        rng = np.random.default_rng(37)
        theta, X = map(np.array, zip(*(simulate_arx(int(rng.integers(1000)), 460)
                                       for _ in GAP_KINDS)))
        mask = np.array([gappy_mask(rng, 460, kind) for kind in GAP_KINDS])

        def sweep(value):
            poisoned = np.where(mask, theta, value)
            return select_ar_orders(poisoned[:, :300], mask[:, :300], X[:, :300],
                                    poisoned[:, 300:], mask[:, 300:], X[:, 300:],
                                    theta[:, 295:300], p_max=5)

        def bits(m):
            return (np.float64(m.c).tobytes(), m.alpha.tobytes(), m.gamma.tobytes(),
                    m.order, m.order_rmse)
        want, got = sweep(0.0), sweep(fill)
        assert len({m.order for m in want}) > 1   # the pixels chose different orders
        assert [bits(m) for m in got] == [bits(m) for m in want]

    def test_batched_sweep_returns_per_pixel_errors(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(2, 50))
        mask = np.ones((2, 50), dtype=bool)
        mask[1] = False
        mask_eval = np.ones((2, 20), dtype=bool)
        mask_eval[0] = False
        out = select_ar_orders(theta, mask, rng.normal(size=(2, 50, 1)),
                               rng.normal(size=(2, 20)), mask_eval,
                               rng.normal(size=(2, 20, 1)), np.zeros((2, 5)),
                               labels=["a", "b"])
        assert isinstance(out[0], ValidationError) and "no observed steps" in str(out[0])
        assert isinstance(out[1], ValidationError) and "pixel b" in str(out[1])


class TestFfnn:
    def test_zero_model_outputs_bias(self):
        model = FfnnModel(W1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros(4),
                          b2=0.5, hidden_size=4, l2=0.0, degenerate=False)
        X = np.random.default_rng(0).normal(size=(10, 3))
        assert np.array_equal(model.predict(X), np.full(10, 0.5))

    def test_stateless_row_permutation(self):
        rng = np.random.default_rng(1)
        model = FfnnModel(W1=rng.normal(size=(5, 3)), b1=rng.normal(size=5),
                          w2=rng.normal(size=5), b2=0.1, hidden_size=5, l2=0.0,
                          degenerate=False)
        X = rng.normal(size=(20, 3))
        perm = rng.permutation(20)
        assert np.array_equal(model.predict(X)[perm], model.predict(X[perm]))

    def test_matches_scalar_evaluation(self):
        import math
        rng = np.random.default_rng(2)
        model = FfnnModel(W1=rng.normal(size=(3, 2)), b1=rng.normal(size=3),
                          w2=rng.normal(size=3), b2=-0.2, hidden_size=3, l2=0.0,
                          degenerate=False)
        x = rng.normal(size=2)
        expect = model.b2
        for j in range(3):
            a = model.b1[j] + model.W1[j, 0] * x[0] + model.W1[j, 1] * x[1]
            expect += model.w2[j] * math.tanh(a)
        got = model.predict(x[None, :])[0]
        assert abs(got - expect) < 1e-12

    def test_learns_linear_map(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 3))
        y = 0.2 + X @ np.array([0.05, -0.03, 0.08])
        model = fit_ffnn(X, y, hidden_size=8, l2=0.0, seed=4,
                         max_epochs=3000, patience=100)
        rmse = float(np.sqrt(np.mean((model.predict(X) - y) ** 2)))
        assert rmse < 0.01 * y.std()

    def test_constant_target_degenerate(self):
        X = np.random.default_rng(5).normal(size=(50, 2))
        model = fit_ffnn(X, np.full(50, 0.3), hidden_size=4, seed=0)
        assert model.degenerate
        assert np.array_equal(model.predict(X), np.full(50, 0.3))

    @pytest.mark.parametrize("n, d, hidden, l2, seed, max_epochs, expect_early", [
        (200, 3, 4, 0.002, 0, 1000, True),     # stops early on its patience
        (300, 11, 30, 0.01, 3, 25, False),     # runs to max_epochs
        (60, 2, 5, 0.002, 1, 1000, None),      # constant target
    ])
    def test_fit_equals_four_array_adam_oracle(self, n, d, hidden, l2, seed, max_epochs,
                                               expect_early):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if expect_early is None:
            y = np.full(n, 0.25)
        else:
            y = np.tanh(X @ rng.normal(size=d)) + rng.normal(0, 0.3, size=n)
        model = fit_ffnn(X, y, hidden_size=hidden, l2=l2, seed=seed, max_epochs=max_epochs)
        ref = four_array_ffnn_fit(X, y, hidden, l2, seed, max_epochs=max_epochs)
        for name in ("W1", "b1", "w2"):
            assert np.array_equal(getattr(model, name), ref[name]), name
        for name in ("b2", "epochs_run", "degenerate"):
            assert getattr(model, name) == ref[name], name
        assert np.array_equal(model.val_rmse, ref["val_rmse"], equal_nan=True)
        if expect_early is not None:
            assert (model.epochs_run < max_epochs) == expect_early

    def test_dimension_mismatch(self):
        model = FfnnModel(W1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros(4),
                          b2=0.0, hidden_size=4, l2=0.0, degenerate=False)
        with pytest.raises(ValidationError):
            model.predict(np.zeros((5, 2)))
