import json
import math
import unicodedata

import pytest
from hypothesis import given, strategies as st

from ctms.metrics import (
    GoldAnswer,
    GoldConcept,
    GoldFormatError,
    aap,
    average_precision,
    cluster_quality,
    iaap,
    interleave,
    load_gold,
    precision_at_n,
)


def gold(*term_lists):
    return GoldAnswer(
        seed="种",
        concepts=tuple(
            GoldConcept(name=f"g{i}", terms=tuple(ts)) for i, ts in enumerate(term_lists)
        ),
    )


def results(*term_lists):
    """A system's results: one ranked term list per concept."""
    return tuple(tuple(ts) for ts in term_lists)


# --- interleave -------------------------------------------------------------


def test_interleave_round_robin():
    assert interleave([["t11", "t12"], ["t21", "t22"]]) == ["t11", "t21", "t12", "t22"]


def test_interleave_single_list():
    assert interleave([["a", "b"]]) == ["a", "b"]


def test_interleave_skips_exhausted():
    assert interleave([["a"], ["b", "c", "d"]]) == ["a", "b", "c", "d"]


def test_interleave_dedups_first_occurrence():
    assert interleave([["a", "b"], ["a", "c"]]) == ["a", "b", "c"]


# --- precision at n ---------------------------------------------------------


def test_precision_at_n_fraction():
    merged = [f"t{i}" for i in range(10)]
    gold_terms = {f"t{i}" for i in range(7)}
    assert precision_at_n(merged, gold_terms, 10) == pytest.approx(0.7)


def test_precision_empty_results():
    assert precision_at_n([], {"a"}, 10) == 0.0


def test_precision_all_correct():
    assert precision_at_n(["a", "b"], {"a", "b"}, 2) == 1.0


def test_precision_missing_slots_count_wrong():
    assert precision_at_n(["a"], {"a"}, 4) == pytest.approx(0.25)


# --- average precision ------------------------------------------------------


def test_average_precision_hand_value():
    assert average_precision(["g1", "x", "g2"], {"g1", "g2", "g3"}) == pytest.approx(5 / 9)


def test_average_precision_empty():
    assert average_precision([], {"a"}) == 0.0


def test_average_precision_perfect_order():
    assert average_precision(["a", "b"], {"a", "b"}) == 1.0
    assert average_precision(["b", "a"], {"a", "b"}) == 1.0  # both ranks correct
    assert average_precision(["x", "a", "b"], {"a", "b"}) < 1.0


@given(
    st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=8),
    st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
)
def test_ap_in_unit_interval(ranked, gold_terms):
    assert 0.0 <= average_precision(ranked, gold_terms) <= 1.0


@given(
    st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=2, max_size=8),
    st.sets(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
    st.integers(0, 6),
)
def test_ap_swapping_correct_earlier_never_decreases(ranked, gold_terms, idx):
    if idx + 1 >= len(ranked):
        return
    a, b = ranked[idx], ranked[idx + 1]
    if a in gold_terms or b not in gold_terms:
        return
    swapped = ranked[:]
    swapped[idx], swapped[idx + 1] = b, a
    assert average_precision(swapped, gold_terms) >= average_precision(ranked, gold_terms)


# --- cluster-aware averages -------------------------------------------------


def test_aap_perfect_single_list():
    assert aap(results(["a", "b"]), gold(["a", "b"])) == 1.0


def test_aap_no_matching_gold_contributes_zero():
    r = results(["x", "y"], ["a", "b"])
    g = gold(["a", "b"])
    assert aap(r, g) == pytest.approx(0.5)


def test_aap_weighted_average_case():
    # AvePs 0.8 and 0.4 from equal-length lists average to 0.6
    g = gold(["a1", "a2", "a3", "a4", "a5"], ["b1", "b2", "b3", "b4", "b5"])
    r = results(["a1", "a2", "a3", "a4"], ["b1", "b2", "x", "y"])
    assert average_precision(["a1", "a2", "a3", "a4"], g.concepts[0].terms) == 0.8
    assert average_precision(["b1", "b2", "x", "y"], g.concepts[1].terms) == 0.4
    assert aap(r, g) == pytest.approx(0.6)


def test_iaap_perfect_reproduction():
    r = results(["a", "b"], ["c", "d"])
    g = gold(["a", "b"], ["c", "d"])
    assert iaap(r, g) == 1.0


def test_iaap_unmatched_gold_contributes_zero():
    r = results(["a", "b"])
    g = gold(["a", "b"], ["c", "d"])
    assert iaap(r, g) == pytest.approx(0.5)


def test_iaap_weighted_average_case():
    # |GL1|=10 with best AveP 0.5, |GL2|=30 with best AveP 0.9 -> 0.8
    gl1 = [f"a{i}" for i in range(10)]
    gl2 = [f"b{i}" for i in range(30)]
    g = gold(gl1, gl2)
    r = results(gl1[:5], gl2[:27])
    assert average_precision(gl1[:5], gl1) == 0.5
    assert average_precision(gl2[:27], gl2) == 0.9
    assert iaap(r, g) == pytest.approx((10 * 0.5 + 30 * 0.9) / 40)
    assert iaap(r, g) == pytest.approx(0.8)


def test_aap_iaap_reduce_to_ap_for_single_lists():
    ranked = ["a", "x", "b"]
    gold_terms = ["a", "b", "c"]
    r = results(ranked)
    g = gold(gold_terms)
    expected = average_precision(ranked, gold_terms)
    assert aap(r, g) == pytest.approx(expected)
    assert iaap(r, g) == pytest.approx(expected)


# --- purity family ----------------------------------------------------------


def test_clusters_identical_to_categories():
    r = results(["a", "b"], ["c", "d"])
    g = gold(["a", "b"], ["c", "d"])
    assert cluster_quality(r, g) == (1.0, 1.0, 1.0)


def test_one_cluster_of_two_equal_categories():
    r = results(["a", "b", "c", "d"])
    g = gold(["a", "b"], ["c", "d"])
    purity, inverse, _f = cluster_quality(r, g)
    assert purity == pytest.approx(0.5)
    assert inverse == pytest.approx(1.0)


def test_singleton_clusters():
    r = results(["a"], ["b"], ["c"])
    g = gold(["a", "b", "c"])
    purity, inverse, _f = cluster_quality(r, g)
    assert purity == 1.0
    assert inverse == pytest.approx(1 / 3)


def test_non_gold_terms_excluded_before_computation():
    r = results(["a", "junk1", "b"], ["c", "junk2", "d"])
    g = gold(["a", "b"], ["c", "d"])
    assert cluster_quality(r, g) == (1.0, 1.0, 1.0)


def test_nothing_retained_reports_zeros():
    r = results(["junk"])
    g = gold(["a"])
    assert cluster_quality(r, g) == (0.0, 0.0, 0.0)


def test_f_is_a_left_fold_not_a_compensated_sum():
    # Each gold category adds its size times its best F1 over the clusters.
    # Added left to right, these four terms round to another last bit than
    # their exact sum (`math.fsum`, and the compensated `sum` of Python 3.12+).
    r = results(["a", "b", "c", "d", "h"], ["e", "f", "g"])
    g = gold(["d", "h"], ["b"], ["a", "c", "e"], ["f", "g"])

    def f1(precision, recall):
        return 2 * precision * recall / (precision + recall)

    terms = [
        2 * f1(2 / 5, 2 / 2),
        1 * f1(1 / 5, 1 / 1),
        3 * max(f1(2 / 5, 2 / 3), f1(1 / 3, 1 / 3)),
        2 * f1(2 / 3, 2 / 2),
    ]
    fold = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    assert fold / 8 != math.fsum(terms) / 8
    assert cluster_quality(r, g)[2] == fold / 8


@given(
    st.lists(
        st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=6),
        min_size=1,
        max_size=3,
    )
)
def test_purity_family_in_unit_interval(term_lists):
    # two disjoint gold categories over the same alphabet universe
    g = gold(["a", "b", "c", "d"], ["e", "f", "g", "h"])
    r = results(*term_lists)
    purity, inverse, f = cluster_quality(r, g)
    for value in (purity, inverse, f):
        assert 0.0 <= value <= 1.0


@given(st.integers(0, 8))
def test_p_at_n_monotone_in_noise(n_noise):
    base = ["a", "b", "c"]
    gold_terms = {"a", "b", "c"}
    noisy = [f"noise{i}" for i in range(n_noise)] + base
    more_noisy = [f"noise{i}" for i in range(n_noise + 1)] + base
    assert precision_at_n(noisy, gold_terms, 5) >= precision_at_n(more_noisy, gold_terms, 5)


# --- terms equal after normalisation ----------------------------------------
#
# "caf\u00e9" (NFC) and "cafe\u0301" (NFD) are one term after `nfc_trim`, as
# are terms that differ only in edge whitespace; `interleave` keeps both
# raw strings, so each metric must count the normalised term once.

CAFE_NFC, CAFE_NFD = "caf\u00e9", "cafe\u0301"


def test_average_precision_counts_a_normalised_term_once():
    assert average_precision([CAFE_NFC, CAFE_NFD], [CAFE_NFC]) == 1.0
    assert precision_at_n([CAFE_NFC, CAFE_NFD, " x"], {CAFE_NFC, "x"}, 2) == 1.0
    assert precision_at_n([CAFE_NFC, CAFE_NFD], {CAFE_NFC}, 2) == 0.5


def test_aap_and_iaap_count_a_normalised_term_once():
    r, g = results([CAFE_NFC, CAFE_NFD]), gold([CAFE_NFC])
    assert aap(r, g) == 1.0
    assert iaap(r, g) == 1.0


def test_cluster_quality_counts_a_normalised_term_once():
    r, g = results([CAFE_NFC, CAFE_NFD, " " + CAFE_NFC]), gold([CAFE_NFC])
    assert cluster_quality(r, g) == (1.0, 1.0, 1.0)


BASE_TERMS = [CAFE_NFC, "a", "b", "\u00f1"]  # "ñ" has an NFD form too


@st.composite
def variant_term_lists(draw):
    variant = st.sampled_from(BASE_TERMS).flatmap(
        lambda t: st.sampled_from([t, unicodedata.normalize("NFD", t), f" {t}", f"{t}\n"])
    )
    return draw(st.lists(st.lists(variant, min_size=1, max_size=8), min_size=1, max_size=3))


@given(variant_term_lists(), st.integers(1, 10))
def test_metrics_stay_in_unit_interval_with_normalised_duplicates(term_lists, n):
    g = gold([CAFE_NFC, "a"], ["b"])
    r = results(*term_lists)
    merged = interleave(r)
    values = [
        precision_at_n(merged, g.union(), n),
        average_precision(merged, g.union()),
        aap(r, g),
        iaap(r, g),
        *cluster_quality(r, g),
    ]
    for value in values:
        assert 0.0 <= value <= 1.0


# --- gold file loading ------------------------------------------------------


def test_load_gold_roundtrip(tmp_path):
    payload = {
        "seed": " 华盛顿 ",
        "concepts": [{"name": "g", "terms": ["纽约", "芝加哥 "]}],
    }
    path = tmp_path / "gold.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    g = load_gold(path)
    assert g.seed == "华盛顿"
    assert g.concepts[0].terms == ("纽约", "芝加哥")


def test_load_gold_rejects_bad_json(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(GoldFormatError):
        load_gold(path)


def test_load_gold_rejects_a_blank_term(tmp_path):
    # A term that is empty after trimming could never be matched, yet it
    # would count toward its concept's size: [["甲"]] would score AP, AAP
    # and IAAP 0.5 against this gold instead of 1.0.
    path = tmp_path / "gold.json"
    path.write_text(
        json.dumps(
            {"seed": "种", "concepts": [{"name": "c", "terms": ["甲", "  "]}]},
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    with pytest.raises(GoldFormatError, match="blank term"):
        load_gold(path)


def test_load_gold_rejects_empty_concept(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text(
        json.dumps({"seed": "s", "concepts": [{"name": "g", "terms": []}]}),
        encoding="utf-8",
    )
    with pytest.raises(GoldFormatError):
        load_gold(path)


def _write_gold(tmp_path, payload):
    path = tmp_path / "gold.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "first, second", [("林肯", "林肯"), ("\u00c5", " A\u030a ")], ids=["same", "nfc-variant"]
)
def test_load_gold_rejects_a_term_in_two_concepts(first, second, tmp_path):
    # The purity family is defined on a partition: with 林肯 under both
    # concepts, the miniweb report scored inverse purity and F 2.0.
    path = _write_gold(tmp_path, {
        "seed": "华盛顿",
        "concepts": [{"name": "a", "terms": [first]}, {"name": "b", "terms": ["甲", second]}],
    })
    with pytest.raises(GoldFormatError, match=f"gold term '{first}' is in both 'a' and 'b'"):
        load_gold(path)


def test_load_gold_rejects_no_concepts(tmp_path):
    path = _write_gold(tmp_path, {"seed": "华盛顿", "concepts": []})
    with pytest.raises(GoldFormatError, match="no concepts"):
        load_gold(path)


@pytest.mark.parametrize(
    "seed", [1, None, ["华盛顿"], "", " \u3000 "], ids=["int", "null", "list", "empty", "blank"]
)
def test_load_gold_rejects_a_seed_that_is_not_a_non_blank_string(seed, tmp_path):
    path = _write_gold(tmp_path, {"seed": seed, "concepts": [{"name": "g", "terms": ["林肯"]}]})
    with pytest.raises(GoldFormatError, match="gold seed must be a non-blank string"):
        load_gold(path)


@pytest.mark.parametrize(
    "terms", ["林肯", ["林肯", 1], {"林肯": 1}, None], ids=["string", "non-str-item", "dict", "null"]
)
def test_load_gold_rejects_terms_not_a_list_of_strings(terms, tmp_path):
    path = tmp_path / "gold.json"
    path.write_text(
        json.dumps({"seed": "s", "concepts": [{"name": "g", "terms": terms}]}, ensure_ascii=False),
        encoding="utf-8",
    )
    with pytest.raises(GoldFormatError, match="list of strings"):
        load_gold(path)


def test_load_gold_rejects_concept_that_is_not_an_object(tmp_path):
    path = tmp_path / "gold.json"
    path.write_text(json.dumps({"seed": "s", "concepts": [["林肯"]]}), encoding="utf-8")
    with pytest.raises(GoldFormatError):
        load_gold(path)
