import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mve.evaluation
from mve.core import QueryEncoder
from mve.engine import EngineConfig, build_engine
from mve.errors import InvalidConfigError, InvalidInputError
from mve.evaluation import (
    CSV_HEADER,
    Qrels,
    average_precision,
    format_run_lines,
    load_qrels,
    load_queries,
    ndcg_at,
    paired_t_test_bonferroni,
    read_run,
    rr_at,
    sweep,
)
from mve.retrieval import (
    RankedEntries,
    Ranking,
    Strategy,
    ann_candidates,
    order_embeddings,
    pruned_union,
    score_documents,
)

from conftest import count_ann_calls

DATA = Path(__file__).parent / "data"


def ranking_of(*doc_ids, start=10.0, k=50):
    return Ranking(
        entries=tuple((doc_id, start - i) for i, doc_id in enumerate(doc_ids)), k=k
    )


QRELS = Qrels(
    {
        "q1": {"good": 3, "ok": 1, "meh": 0},
        "q2": {"only": 1},
        "empty": {"meh": 0},
    }
)


# ---------------------------------------------------------------------------
# nDCG / AP / RR
# ---------------------------------------------------------------------------


def test_ndcg_of_ideal_ranking_is_one():
    assert ndcg_at(ranking_of("good", "ok"), QRELS, "q1") == pytest.approx(1.0)


def test_ndcg_zero_when_no_relevant_retrieved():
    assert ndcg_at(ranking_of("meh", "stranger"), QRELS, "q1") == 0.0


def test_ndcg_worked_example():
    # graded run [3, 0, 1] against judged grades {3, 1}
    qrels = Qrels({"q": {"a": 3, "b": 0, "c": 1}})
    ranking = ranking_of("a", "b", "c")
    dcg = 3 / math.log2(2) + 0 / math.log2(3) + 1 / math.log2(4)
    idcg = 3 / math.log2(2) + 1 / math.log2(3)
    assert dcg == pytest.approx(3.5)
    assert idcg == pytest.approx(3.6309297535714575)
    got = ndcg_at(ranking, qrels, "q")
    assert got == pytest.approx(dcg / idcg, abs=1e-12)
    assert got == pytest.approx(0.9639, abs=1e-4)


def test_ndcg_ignores_docs_below_cutoff():
    top = [f"t{i}" for i in range(10)]
    qrels = Qrels({"q": {top[0]: 2, top[3]: 1, "below": 3}})
    one = ranking_of(*top, "below", "x1", k=20)
    two = ranking_of(*top, "x2", "below", k=20)
    assert ndcg_at(one, qrels, "q") == ndcg_at(two, qrels, "q")
    assert rr_at(one, qrels, "q") == rr_at(two, qrels, "q")


def test_average_precision_examples():
    # all relevant docs at the top ranks
    assert average_precision(ranking_of("good", "ok"), QRELS, "q1") == pytest.approx(1.0)
    # one of two relevant docs, retrieved at rank 2
    qrels = Qrels({"q": {"a": 1, "b": 1}})
    assert average_precision(ranking_of("x", "a"), qrels, "q") == pytest.approx(0.25)
    # no judged-relevant docs at all
    assert average_precision(ranking_of("meh"), QRELS, "empty") == 0.0


def test_rr_examples():
    assert rr_at(ranking_of("good"), QRELS, "q1") == 1.0
    assert rr_at(ranking_of("x", "y", "z", "good"), QRELS, "q1") == pytest.approx(0.25)
    eleven = ranking_of(*[f"x{i}" for i in range(10)], "good")
    assert rr_at(eleven, QRELS, "q1") == 0.0
    with pytest.raises(InvalidConfigError):
        rr_at(ranking_of("good"), QRELS, "q1", cutoff=0)


@pytest.mark.parametrize("bad", [1.5, 10.0, True, "10"])
def test_metric_cutoffs_must_be_integers(bad):
    # cutoff = 1.5 failed in slicing, and cutoff = True ran as 1
    for metric in (ndcg_at, rr_at):
        with pytest.raises(InvalidConfigError, match="cutoff must be an integer"):
            metric(ranking_of("good"), QRELS, "q1", cutoff=bad)
        assert metric(ranking_of("good"), QRELS, "q1", cutoff=np.int64(1)) == 1.0


def reference_dcg(gains):
    return sum(g / math.log2(rank + 1) for rank, g in enumerate(gains, start=1))


def reference_ndcg(pairs, qrels, query_id, cutoff):
    """nDCG as computed over ``(doc_id, score)`` entries before rankings held columns."""
    judged = qrels.judged(query_id)
    dcg = reference_dcg(judged.get(doc_id, 0) for doc_id, _ in pairs[:cutoff])
    ideal = reference_dcg(sorted(judged.values(), reverse=True)[:cutoff])
    return dcg / ideal if ideal > 0.0 else 0.0


def reference_ap(pairs, qrels, query_id):
    relevant = qrels.relevant(query_id)
    if not relevant:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, (doc_id, _) in enumerate(pairs, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


def reference_rr(pairs, qrels, query_id, cutoff):
    relevant = qrels.relevant(query_id)
    for rank, (doc_id, _) in enumerate(pairs[:cutoff], start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


DOC_IDS = st.text(alphabet="abcdefg", min_size=1, max_size=2)
SCORES = st.sampled_from([3.0, 2.0, 1.0, 0.0, -0.0, -1.0])  # ties, and a -0.0/0.0 tie


@settings(max_examples=200)
@given(
    scored=st.dictionaries(DOC_IDS, SCORES, max_size=40),
    judged=st.dictionaries(DOC_IDS, st.integers(min_value=0, max_value=3), max_size=30),
    extra_depth=st.integers(min_value=0, max_value=3),
)
# 1/3 + 2/4 + 3/5 rounds differently added in rank order than exactly (math.fsum)
@example(scored=dict.fromkeys("abcde", 3.0), judged=dict.fromkeys("cde", 1), extra_depth=0)
def test_metrics_keep_the_bits_of_the_entry_loop(scored, judged, extra_depth):
    pairs = tuple(sorted(scored.items(), key=lambda pair: (-pair[1], pair[0])))
    k = max(1, len(pairs) + extra_depth)
    ranking = Ranking(entries=pairs, k=k)
    qrels = Qrels({"q": judged})
    assert average_precision(ranking, qrels, "q") == reference_ap(pairs, qrels, "q")
    for cutoff in range(1, k + 3):
        assert ndcg_at(ranking, qrels, "q", cutoff) == reference_ndcg(pairs, qrels, "q", cutoff)
        assert rr_at(ranking, qrels, "q", cutoff) == reference_rr(pairs, qrels, "q", cutoff)


# ---------------------------------------------------------------------------
# Golden fixture agreement
# ---------------------------------------------------------------------------


def test_metrics_match_frozen_golden_file():
    golden = json.loads((DATA / "golden_metrics.json").read_text())
    rankings = read_run(DATA / "golden_run.txt")
    qrels = load_qrels(DATA / "golden_qrels.txt")
    empty = Ranking(entries=(), k=1)
    means = {"ndcg10": 0.0, "map": 0.0, "mrr10": 0.0}
    for qid in qrels.query_ids():
        ranking = rankings.get(qid, empty)
        got = {
            "ndcg10": ndcg_at(ranking, qrels, qid),
            "map": average_precision(ranking, qrels, qid),
            "mrr10": rr_at(ranking, qrels, qid),
        }
        for name, value in got.items():
            assert value == pytest.approx(golden["per_query"][qid][name], abs=1e-4)
            means[name] += value
    for name in means:
        mean = means[name] / len(qrels.query_ids())
        assert mean == pytest.approx(golden["means"][name], abs=1e-4)


# ---------------------------------------------------------------------------
# Paired t-test with Bonferroni correction
# ---------------------------------------------------------------------------


def student_t_sf_oracle(t, dof):
    """Survival function via the regularized incomplete beta (mpmath)."""
    import mpmath

    x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
    tail = mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(tail)


def fixed_samples():
    a = [0.52 + 0.015 * i + 0.11 * math.sin(3 * i) for i in range(30)]
    b = [0.47 + 0.013 * i + 0.09 * math.sin(3 * i + 1) for i in range(30)]
    return a, b


def test_t_test_identical_samples():
    a = [0.1, 0.4, 0.3, 0.9]
    result = paired_t_test_bonferroni(a, list(a), num_comparisons=1)
    assert result == (0.0, 1.0, False)


def test_t_test_constant_shift_is_significant():
    b = [0.2 + 0.01 * i for i in range(30)]
    a = [x + 0.1 for x in b]
    result = paired_t_test_bonferroni(a, b, num_comparisons=1)
    assert result.t > 100.0  # enormous statistic: near-zero spread, positive mean
    assert result.p_value < 1e-12
    assert result.significant


def test_t_test_zero_spread_guard():
    # exact binary fractions keep the paired differences bitwise constant
    b = [i / 64.0 for i in range(30)]
    a = [x + 0.125 for x in b]
    result = paired_t_test_bonferroni(a, b, num_comparisons=1)
    assert math.isinf(result.t) and result.t > 0
    assert result.p_value == 0.0
    assert result.significant
    flipped = paired_t_test_bonferroni(b, a, num_comparisons=1)
    assert math.isinf(flipped.t) and flipped.t < 0


def test_t_test_matches_closed_form_and_cdf_oracle():
    a, b = fixed_samples()
    result = paired_t_test_bonferroni(a, b, num_comparisons=1)
    # closed form: t = mean(d) / (sd(d) / sqrt(n)), computed independently
    diffs = [x - y for x, y in zip(a, b)]
    mean = math.fsum(diffs) / len(diffs)
    sd = math.sqrt(math.fsum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
    expected_t = mean / (sd / math.sqrt(len(diffs)))
    assert result.t == pytest.approx(expected_t, rel=1e-12)
    assert result.p_value == pytest.approx(2 * student_t_sf_oracle(abs(expected_t), 29), rel=1e-9)


def test_t_test_tail_is_bit_identical_to_scipy_stats_t_sf():
    from scipy import stats

    rng = np.random.default_rng(41)
    checked = 0
    for n in (2, 3, 5, 10, 31, 100, 200):
        noise = rng.standard_normal(n)
        unit = (noise - noise.mean()) / noise.std(ddof=1)
        for magnitude in np.logspace(-8, 3, 23):
            for sign in (1.0, -1.0):
                diffs = unit + sign * magnitude / math.sqrt(n)
                result = paired_t_test_bonferroni(diffs, np.zeros(n), num_comparisons=1)
                assert result.t != 0.0 and math.isfinite(result.t)
                assert math.copysign(1.0, result.t) == sign
                expected = 2.0 * float(stats.t.sf(abs(result.t), n - 1))
                assert result.p_value == expected, (n, result.t)
                checked += 1
    assert checked == 7 * 23 * 2


def numpy_route_t_test(a, b, num_comparisons, alpha=0.05):
    """The t-test as it computed its statistic through ``mean()`` and
    ``std(ddof=1)``, kept verbatim as the bit-for-bit reference."""
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    n = xs.size
    diffs = xs - ys
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return (0.0, 1.0, False)
        t = math.inf if mean > 0 else -math.inf
        p_value = 0.0
    else:
        from scipy.special import stdtr

        t = mean / (sd / math.sqrt(n))
        p_value = 2.0 * float(stdtr(n - 1, -abs(t)))
    return (float(t), p_value, p_value < alpha / num_comparisons)


def bits(result):
    t, p_value, significant = result
    return t.hex(), p_value.hex(), significant


def drawn_samples(n, seed, kind):
    """Two paired samples of size ``n``: metric-like values in [0, 1], a
    grid of tenths (ties and zero spread), or values over twelve decades."""
    rng = np.random.default_rng(seed)
    if kind == "unit":
        return rng.random(n).tolist(), rng.random(n).tolist()
    if kind == "grid":
        return (rng.integers(0, 11, n) / 10).tolist(), (rng.integers(0, 11, n) / 10).tolist()
    scale = 10.0 ** rng.integers(-6, 7, (2, n))
    return (rng.standard_normal(n) * scale[0]).tolist(), (rng.standard_normal(n) * scale[1]).tolist()


small_samples = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_samples,
        st.builds(
            drawn_samples,
            st.integers(2, 300),
            st.integers(0, 2**32 - 1),
            st.sampled_from(["unit", "grid", "wide"]),
        ),
    ),
    st.integers(1, 10**6),
)
@example(([0.5, 0.7], [0.4, 0.9]), 30)
@example(([0.25, 0.25], [0.0, 0.0]), 1)
@example(([0.1] * 37, [0.1] * 37), 3)
def test_t_test_keeps_the_bits_of_the_numpy_route(samples, num_comparisons):
    a, b = samples
    result = paired_t_test_bonferroni(a, b, num_comparisons)
    assert bits(result) == bits(numpy_route_t_test(a, b, num_comparisons))


def test_t_test_antisymmetry():
    a, b = fixed_samples()
    forward = paired_t_test_bonferroni(a, b, num_comparisons=4)
    backward = paired_t_test_bonferroni(b, a, num_comparisons=4)
    assert backward.t == pytest.approx(-forward.t, rel=1e-12)
    assert backward.p_value == pytest.approx(forward.p_value, rel=1e-12)
    assert backward.significant == forward.significant


def test_t_test_bonferroni_threshold_scales_exactly():
    a, b = fixed_samples()
    p_value = paired_t_test_bonferroni(a, b, num_comparisons=1).p_value
    for num in (1, 2, 64, 4096, 10**7):
        result = paired_t_test_bonferroni(a, b, num_comparisons=num)
        assert result.significant == (p_value < 0.05 / num)


def test_t_test_input_validation():
    with pytest.raises(InvalidInputError):
        paired_t_test_bonferroni([1.0, 2.0], [1.0], num_comparisons=1)
    with pytest.raises(InvalidInputError):
        paired_t_test_bonferroni([1.0], [1.0], num_comparisons=1)
    with pytest.raises(InvalidConfigError):
        paired_t_test_bonferroni([1.0, 2.0], [1.0, 2.0], num_comparisons=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 2.0, True, "2"])
def test_t_test_rejects_a_comparison_count_that_is_not_an_integer(bad):
    # NaN and inf made every result not significant; 2.5 scaled alpha by it
    a, b = fixed_samples()
    with pytest.raises(InvalidConfigError, match="num_comparisons must be an integer"):
        paired_t_test_bonferroni(a, b, num_comparisons=bad)
    assert paired_t_test_bonferroni(a, b, np.int64(3)) == paired_t_test_bonferroni(a, b, 3)


def test_alpha_outside_unit_interval_is_rejected(
    small_planted_engine, small_planted, small_planted_qrels, monkeypatch
):
    a, b = fixed_samples()
    for alpha in (-1.0, 0.0, 1.0, 2.0, math.nan):
        with pytest.raises(InvalidConfigError, match="alpha"):
            paired_t_test_bonferroni(a, b, num_comparisons=1, alpha=alpha)
    # the sweep refuses before any candidate generation runs
    monkeypatch.setattr(mve.evaluation, "ann_candidates", None)
    for alpha in (0.0, math.nan):
        with pytest.raises(InvalidConfigError, match="alpha"):
            small_planted_engine.sweep(small_planted.queries, small_planted_qrels, alpha=alpha)


# ---------------------------------------------------------------------------
# Run and qrels files
# ---------------------------------------------------------------------------


def test_run_file_round_trip(tmp_path):
    rankings = [
        ("q1", ranking_of("a", "b", "c")),
        ("q2", ranking_of("x")),
    ]
    path = tmp_path / "run.txt"
    path.write_text(
        "".join(format_run_lines(qid, ranking, tag="test") for qid, ranking in rankings),
        encoding="utf-8",
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "q1 Q0 a 1 10.000000 test"
    loaded = read_run(path)
    assert loaded["q1"].doc_ids() == ["a", "b", "c"]
    assert loaded["q2"].doc_ids() == ["x"]


def test_read_run_reorders_by_score_then_doc_id(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "q1 Q0 zz 1 5.0 t\n"
        "q1 Q0 aa 2 5.0 t\n"
        "q1 Q0 top 3 9.0 t\n"
    )
    assert read_run(path)["q1"].doc_ids() == ["top", "aa", "zz"]


def test_read_run_rejects_a_nan_score_and_keeps_infinities(tmp_path):
    # with NaN accepted, MAP against qrels "q 0 a 1" was 1.0 or 0.5 by line order
    path = tmp_path / "run.txt"
    for text, bad_line in (("q Q0 a 1 nan t\nq Q0 b 2 1.0 t\n", 1),
                           ("q Q0 b 1 1.0 t\nq Q0 a 2 NaN t\n", 2)):
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"{path}:{bad_line}: score is NaN"):
            read_run(path)
    path.write_text("q Q0 a 1 inf t\nq Q0 b 2 1.0 t\nq Q0 c 3 -inf t\n")
    assert read_run(path)["q"].doc_ids() == ["a", "b", "c"]


def test_load_qrels_rejects_a_pair_judged_twice(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("q 0 a 1\nq 0 b 1\nr 0 a 0\nq 0 a 0\n")
    with pytest.raises(InvalidInputError, match=f"{path}:4: .*'a' twice"):
        load_qrels(path)
    path.write_text("q 0 a 1\nr 0 a 0\n")  # one doc judged for two queries is fine
    assert load_qrels(path).judgments == {"q": {"a": 1}, "r": {"a": 0}}


def test_qrels_and_queries_loaders_validate(tmp_path):
    bad_qrels = tmp_path / "qrels.txt"
    bad_qrels.write_text("q1 0 d1\n")
    with pytest.raises(InvalidInputError):
        load_qrels(bad_qrels)
    bad_queries = tmp_path / "queries.tsv"
    bad_queries.write_text("no-tab-here\n")
    with pytest.raises(InvalidInputError):
        load_queries(bad_queries)
    with pytest.raises(InvalidInputError):
        Qrels({"q": {"d": -1}})


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def test_sweep_baseline_row_equals_itself_and_is_not_significant(
    small_planted_engine, small_planted, small_planted_qrels
):
    engine = small_planted_engine
    q_len = engine.config.q_len
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.FIRST], p_values=[q_len],
    )
    assert len(table.rows) == 1
    row = table.rows[0]
    assert (row.strategy, row.p) == ("first", q_len)
    assert not (row.sig_ndcg10 or row.sig_map or row.sig_mrr10)


def test_sweep_mean_docs_non_decreasing_in_p(
    small_planted_engine, small_planted, small_planted_qrels
):
    engine = small_planted_engine
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.FIRST, Strategy.ICF],
        p_values=[1, 2, 4, engine.config.q_len],
    )
    for strategy in ("first", "icf"):
        docs = [row.mean_docs for row in table.rows if row.strategy == strategy]
        assert docs == sorted(docs)


def test_sweep_rows_match_individual_searches(
    small_planted_engine, small_planted, small_planted_qrels
):
    engine = small_planted_engine
    p = 2
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.ICF], p_values=[p, engine.config.q_len],
    )
    row = table.row(Strategy.ICF, p)
    sizes = []
    relevant_counts = []
    for qid, text in small_planted.queries:
        _, candidates = engine.search(text, strategy=Strategy.ICF, p=p)
        sizes.append(len(candidates))
        relevant_counts.append(len(candidates.docs & small_planted_qrels.relevant(qid)))
    assert row.mean_docs == pytest.approx(sum(sizes) / len(sizes))
    assert row.mean_rel_docs == pytest.approx(sum(relevant_counts) / len(relevant_counts))


def full_depth_cells(query_id, text, index, lexicon, encoder, qrels, strategies, p_values,
                     k, k_prime, n_probe):
    """Per-cell metrics with every cell's ranking built to depth ``k``: the
    sweep's own computation before it cut rankings where the metrics stop
    reading, kept as the reference."""
    query = encoder.encode(text)
    store = index.store
    firsts, slots = query.distinct_rows
    distinct_sets = [
        ann_candidates(index, query.embeddings[position], k_prime, n_probe)[1]
        for position in firsts.tolist()
    ]
    doc_sets = [distinct_sets[slot] for slot in slots.tolist()]
    union = pruned_union(distinct_sets, len(distinct_sets))
    scores = score_documents(query, store, union.numbers)
    # the union comes in doc-id order, so a stable sort breaks ties by doc id
    order = np.argsort(-scores, kind="stable")
    ranked = union.numbers[order]
    ranked_ids = store.doc_id_array[ranked]
    ranked_scores = scores[order]
    relevant = np.zeros(store.num_docs, dtype=bool)
    for number in map(store.index_of, qrels.relevant(query_id)):
        if number is not None:  # judged docs the store lacks are never ranked
            relevant[number] = True
    ranked_relevant = relevant[ranked]

    def metrics_for(member: np.ndarray) -> tuple[float, float, float, int, int]:
        """Metrics and counts of the cell whose doc numbers ``member`` marks."""
        hit = member[ranked]
        top = np.flatnonzero(hit)[:k]
        entries = RankedEntries(ranked_ids[top].tolist(), ranked_scores[top])
        ranking = Ranking(entries=entries, k=k)
        return (
            ndcg_at(ranking, qrels, query_id),
            average_precision(ranking, qrels, query_id),
            rr_at(ranking, qrels, query_id),
            int(hit.sum()),
            int((hit & ranked_relevant).sum()),
        )

    baseline = metrics_for(np.ones(store.num_docs, dtype=bool))[:3]
    per_config = {}
    for strategy in strategies:
        ordering = order_embeddings(query, lexicon, strategy)
        member = np.zeros(store.num_docs, dtype=bool)
        consumed = 0
        for p in p_values:
            while consumed < p:
                member[doc_sets[ordering[consumed]].numbers] = True
                consumed += 1
            per_config[(strategy.value, p)] = metrics_for(member)
    return per_config, baseline


@pytest.mark.parametrize("engine_name", ["small_planted_engine", "padded_planted_engine"])
def test_shallow_cells_equal_the_full_depth_cells(
    engine_name, small_planted, small_planted_qrels, request
):
    engine = request.getfixturevalue(engine_name)
    strategies = list(Strategy)
    p_values = list(range(1, engine.config.q_len + 1))
    k_prime, n_probe = engine.config.k_prime, engine.config.n_probe
    args = (engine.index, engine.lexicon, engine.encoder, small_planted_qrels, strategies,
            p_values)
    encoded = [engine.encoder.encode(text) for _, text in small_planted.queries]
    shared = mve.evaluation._shared_probes(encoded, engine.index, k_prime, n_probe)
    deep = 0
    for k in (1, 5, 1000):
        for (qid, text), query in zip(small_planted.queries, encoded):
            outcome = mve.evaluation._evaluate_query(
                qid, query, engine.index, engine.lexicon, small_planted_qrels, strategies,
                p_values, k, k_prime, n_probe, shared,
            )
            expected, baseline = full_depth_cells(qid, text, *args, k, k_prime, n_probe)
            assert outcome.baseline == baseline
            assert outcome.per_config == expected
            deep += sum(cell[1] != 0.0 for cell in expected.values())
    assert deep  # some cells rank relevant docs


def test_sweep_calls_ann_once_per_distinct_vector(
    padded_planted_engine, small_planted, small_planted_qrels, monkeypatch
):
    engine = padded_planted_engine
    q_len = engine.config.q_len
    p_values = [1, 9, 10, q_len]
    calls = count_ann_calls(monkeypatch)
    queries = [engine.encoder.encode(text) for _, text in small_planted.queries]
    vectors = {row.tobytes() for query in queries for row in query.embeddings}
    # CLS and MASK are held by every query, so they are probed once per sweep
    assert len(vectors) < sum(len(query.distinct_rows[0]) for query in queries)
    tables = []
    for threads in (1, 2):
        calls.clear()
        tables.append(engine.sweep(
            small_planted.queries, small_planted_qrels, p_values=p_values, threads=threads
        ))
        assert len(calls) == len(set(calls)) == len(vectors)
        assert set(calls) == vectors
    table = tables[0]
    assert tables[1].to_csv() == table.to_csv()

    # the counts a per-position first stage gives
    config = engine.pruning()
    for strategy in (Strategy.FIRST, Strategy.ICF):
        for p in p_values:
            sizes = []
            for query in queries:
                ordering = order_embeddings(query, engine.lexicon, strategy)
                sets = [
                    ann_candidates(engine.index, query.embeddings[position],
                                   config.k_prime, config.n_probe)[1]
                    for position in ordering[:p]
                ]
                sizes.append(len(pruned_union(sets, p)))
            assert table.row(strategy, p).mean_docs == sum(sizes) / len(sizes)


def test_sweep_full_p_rows_agree_across_strategies(
    small_planted_engine, small_planted, small_planted_qrels
):
    engine = small_planted_engine
    q_len = engine.config.q_len
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.FIRST, Strategy.ICF], p_values=[q_len],
    )
    first = table.row(Strategy.FIRST, q_len)
    icf = table.row(Strategy.ICF, q_len)
    assert (first.ndcg10, first.map, first.mrr10) == (icf.ndcg10, icf.map, icf.mrr10)
    assert (first.mean_docs, first.mean_rel_docs) == (icf.mean_docs, icf.mean_rel_docs)


def test_sweep_icf_reaches_baseline_at_lower_cost_than_first(
    small_planted_engine, small_planted, small_planted_qrels
):
    """Frequency-ordered pruning keeps effectiveness with fewer candidates."""
    engine = small_planted_engine
    q_len = engine.config.q_len
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.FIRST, Strategy.ICF], p_values=[1, 2, q_len],
    )
    baseline = table.row(Strategy.FIRST, q_len)
    icf_one = table.row(Strategy.ICF, 1)
    first_one = table.row(Strategy.FIRST, 1)
    assert icf_one.mrr10 >= 0.95 * baseline.mrr10
    assert first_one.mrr10 < icf_one.mrr10
    assert icf_one.mean_docs < baseline.mean_docs


def test_sweep_is_deterministic_across_thread_counts(
    small_planted_engine, small_planted, small_planted_qrels
):
    engine = small_planted_engine
    kwargs = dict(
        strategies=[Strategy.FIRST, Strategy.ICF], p_values=[1, 3, engine.config.q_len]
    )
    serial = engine.sweep(small_planted.queries, small_planted_qrels, **kwargs, threads=1)
    threaded = engine.sweep(small_planted.queries, small_planted_qrels, **kwargs, threads=4)
    assert serial == threaded
    assert serial.to_csv() == threaded.to_csv()


def test_sweep_csv_shape(small_planted_engine, small_planted, small_planted_qrels, tmp_path):
    engine = small_planted_engine
    table = engine.sweep(
        small_planted.queries, small_planted_qrels,
        strategies=[Strategy.FIRST], p_values=[1, 2],
    )
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("first,1,")
    path = tmp_path / "sweep.csv"
    table.write_csv(path)
    assert path.read_text(encoding="utf-8") == text


def test_sweep_breaks_score_ties_by_doc_id_not_corpus_order():
    # "zz" and "aa" hold the same text, so they score identically; corpus
    # order puts "zz" first, doc-id order puts "aa" first.
    corpus = [("zz", "alpha beta gamma"), ("aa", "alpha beta gamma"), ("mm", "delta epsilon")]
    config = EngineConfig(dim=8, q_len=4, k=10, k_prime=1000, n_list=1, n_probe=1,
                          sample_fraction=1.0, iterations=3, seed=5)
    engine = build_engine(corpus, config)
    queries = [("q1", "alpha beta"), ("q2", "gamma")]
    qrels = Qrels({"q1": {"aa": 1}, "q2": {"aa": 1}})
    for _, text in queries:
        ranking, _ = engine.search(text)
        assert ranking.entries[0][1] == ranking.entries[1][1]
        assert ranking.doc_ids()[:2] == ["aa", "zz"]
    table = engine.sweep(queries, qrels, strategies=[Strategy.FIRST, Strategy.ICF])
    assert [row.mrr10 for row in table.rows] == [1.0] * len(table.rows)


def test_sweep_validates_inputs(small_planted_engine, small_planted, small_planted_qrels):
    engine = small_planted_engine
    with pytest.raises(InvalidConfigError):
        engine.sweep(small_planted.queries, small_planted_qrels, p_values=[0])
    with pytest.raises(InvalidConfigError):
        engine.sweep(small_planted.queries, small_planted_qrels, p_values=[engine.config.q_len + 1])
    with pytest.raises(InvalidInputError):
        sweep(
            [], small_planted_qrels, engine.index, engine.lexicon, engine.encoder,
            [Strategy.FIRST], [1],
        )


UNKNOWN_STRATEGY = {
    "Engine.search": lambda engine, queries, qrels: engine.search(
        queries[0][1], strategy="bogus"
    ),
    "Engine.pruning": lambda engine, queries, qrels: engine.pruning(strategy="bogus"),
    "Engine.sweep": lambda engine, queries, qrels: engine.sweep(
        queries, qrels, strategies=["bogus"]
    ),
    "sweep": lambda engine, queries, qrels: sweep(
        queries, qrels, engine.index, engine.lexicon, engine.encoder,
        [Strategy.FIRST, "bogus"], [1],
    ),
    "order_embeddings": lambda engine, queries, qrels: order_embeddings(
        engine.encoder.encode(queries[0][1]), engine.lexicon, "bogus"
    ),
    "SweepTable.row": lambda engine, queries, qrels: engine.sweep(
        queries, qrels, p_values=[1]
    ).row("bogus", 1),
}


@pytest.mark.parametrize("entry", sorted(UNKNOWN_STRATEGY))
def test_an_unknown_strategy_is_a_config_error(
    small_planted_engine, small_planted, small_planted_qrels, entry
):
    # it was the ValueError of Strategy("bogus")
    with pytest.raises(
        InvalidConfigError, match=r"strategy must be one of \['first', 'icf', 'idf'\], got 'bogus'"
    ):
        UNKNOWN_STRATEGY[entry](
            small_planted_engine, small_planted.queries[:2], small_planted_qrels
        )


def test_the_sweep_rejects_one_string_for_its_strategies(
    small_planted_engine, small_planted, small_planted_qrels, monkeypatch
):
    # "icf" was read as the strategies "i", "c" and "f"
    monkeypatch.setattr(mve.evaluation, "ann_candidates", None)
    engine, queries = small_planted_engine, small_planted.queries[:2]
    with pytest.raises(InvalidConfigError, match="not one string"):
        engine.sweep(queries, small_planted_qrels, strategies="icf")
    with pytest.raises(InvalidConfigError, match="not one string"):
        sweep(
            queries, small_planted_qrels, engine.index, engine.lexicon, engine.encoder,
            Strategy.FIRST, [1],
        )


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
def test_sweep_rejects_counts_that_are_not_integers(
    small_planted_engine, small_planted, small_planted_qrels, bad
):
    engine = small_planted_engine
    queries = small_planted.queries[:2]
    # p = 1.5 was truncated to a p = 1 row, and p = True ran as p = 1
    with pytest.raises(InvalidConfigError, match="every p in p_values must be an integer"):
        engine.sweep(queries, small_planted_qrels, p_values=[bad, 3])
    for name in ("k", "k_prime", "n_probe", "threads"):
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
            sweep(
                queries, small_planted_qrels, engine.index, engine.lexicon, engine.encoder,
                [Strategy.FIRST], [1], **{name: bad},
            )
    want = engine.sweep(queries, small_planted_qrels, p_values=[1, 3]).to_csv()
    got = engine.sweep(queries, small_planted_qrels, p_values=[np.int64(1), np.uint8(3)])
    assert got.to_csv() == want


def test_sweep_encodes_each_query_once(small_planted_engine, small_planted, monkeypatch):
    encoded = []
    real = QueryEncoder.encode

    def counted(encoder, text):
        encoded.append(text)
        return real(encoder, text)

    monkeypatch.setattr(QueryEncoder, "encode", counted)
    small_planted_engine.sweep(small_planted.queries, Qrels(small_planted.judgments), p_values=[1])
    assert sorted(encoded) == sorted(text for _, text in small_planted.queries)
