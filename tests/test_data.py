"""Tests for synthetic corpora, the dataset-increase technique and the
record loaders."""

import pytest

from repro.data.increase import increase_dataset, token_shift_order
from repro.core.naive import naive_self_join
from repro.data.loaders import read_records, write_records
from repro.data.synthetic import (
    CITESEERX_SPEC,
    DBLP_SPEC,
    CorpusSpec,
    generate_citeseerx,
    generate_corpus,
    generate_dblp,
    generate_skewed,
)
from repro.join.config import JoinConfig
from repro.join.driver import set_similarity_self_join
from repro.join.records import parse_fields, rid_of

from tests.conftest import make_cluster, oracle_projections, pair_keys


class TestSynthetic:
    def test_deterministic(self):
        assert generate_dblp(50, seed=1) == generate_dblp(50, seed=1)

    def test_seed_changes_output(self):
        assert generate_dblp(50, seed=1) != generate_dblp(50, seed=2)

    def test_record_count_and_rids(self):
        lines = generate_dblp(30, rid_base=100)
        assert len(lines) == 30
        assert [rid_of(l) for l in lines] == list(range(100, 130))

    def test_field_structure(self):
        fields = parse_fields(generate_dblp(1)[0])
        assert len(fields) == 4  # rid, title, authors, payload

    def test_average_sizes_match_paper_ratio(self):
        dblp = generate_dblp(300)
        cx = generate_citeseerx(300)
        avg_dblp = sum(map(len, dblp)) / len(dblp)
        avg_cx = sum(map(len, cx)) / len(cx)
        # paper: 259 vs 1374 bytes (ratio ~5.3)
        assert 150 < avg_dblp < 400
        assert 3.0 < avg_cx / avg_dblp < 8.0

    def test_near_duplicates_make_join_nonempty(self):
        lines = generate_dblp(300)
        pairs, _ = set_similarity_self_join(
            lines, JoinConfig(threshold=0.8), cluster=make_cluster()
        )
        assert len(pairs) > 0

    def test_shared_pool_creates_rs_matches(self):
        dblp = generate_dblp(200)
        cx = generate_citeseerx(200, rid_base=10_000, shared_with=dblp)
        from repro.join.driver import set_similarity_rs_join

        pairs, _ = set_similarity_rs_join(
            dblp, cx, JoinConfig(threshold=0.8), cluster=make_cluster()
        )
        assert len(pairs) > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(name="x", vocab_size=1)
        with pytest.raises(ValueError):
            CorpusSpec(name="x", dup_fraction=1.5)

    def test_no_duplicate_fraction(self):
        spec = CorpusSpec(name="nodups", dup_fraction=0.0)
        lines = generate_corpus(spec, 50, seed=3)
        assert len(lines) == 50


class TestSkewed:
    """``generate_skewed`` is the reducer-size stress corpus: hub tokens
    pull a few percent of all records onto single Stage-2 routes."""

    def test_deterministic_in_size_and_seed(self):
        assert generate_skewed(300, seed=44) == generate_skewed(300, seed=44)
        assert generate_skewed(300, seed=44) != generate_skewed(300, seed=45)
        assert generate_skewed(300, seed=44)[:200] != generate_skewed(200, seed=44)

    @pytest.mark.parametrize("kernel", ["pk", "bk"])
    def test_join_equals_the_naive_oracle(self, kernel):
        records = generate_skewed(300, seed=44)
        config = JoinConfig(threshold=0.8, kernel=kernel)
        pairs, _ = set_similarity_self_join(records, config, cluster=make_cluster())
        expected = naive_self_join(
            oracle_projections(records, config.schema), config.sim, config.threshold
        )
        joined = sorted((rid_of(a), rid_of(b)) for a, b, _sim in pairs)
        assert joined == pair_keys(expected) and joined

    def test_largest_reducer_holds_a_bigger_share_than_dblps(self):
        def share(records):
            _, report = set_similarity_self_join(
                records, JoinConfig(threshold=0.8), cluster=make_cluster()
            )
            return report.stage2_max_reducer_input / len(records)

        assert share(generate_skewed(300, seed=44)) > share(generate_dblp(300, seed=44))


class TestIncrease:
    @pytest.fixture(scope="class")
    def base(self):
        return generate_dblp(200, seed=5)

    def test_factor_one_is_copy(self, base):
        assert increase_dataset(base, 1) == base

    def test_record_count(self, base):
        assert len(increase_dataset(base, 4)) == 4 * len(base)

    def test_original_prefix_preserved(self, base):
        increased = increase_dataset(base, 3)
        assert increased[: len(base)] == base

    def test_rids_unique(self, base):
        increased = increase_dataset(base, 5)
        rids = [rid_of(l) for l in increased]
        assert len(rids) == len(set(rids))

    def test_dictionary_constant(self, base):
        """The paper's first invariant: roughly constant token dictionary."""
        base_vocab = set(token_shift_order(base))
        increased_vocab = set(token_shift_order(increase_dataset(base, 5)))
        assert increased_vocab == base_vocab

    def test_join_cardinality_linear(self, base):
        """The paper's second invariant: result grows linearly."""
        config = JoinConfig(threshold=0.8)
        cards = {}
        for factor in (1, 2, 3):
            pairs, _ = set_similarity_self_join(
                increase_dataset(base, factor), config, cluster=make_cluster()
            )
            cards[factor] = len(pairs)
        assert cards[2] == 2 * cards[1]
        assert cards[3] == 3 * cards[1]

    def test_non_join_fields_copied_verbatim(self, base):
        increased = increase_dataset(base, 2)
        original_payloads = [parse_fields(l)[3] for l in base]
        copy_payloads = [parse_fields(l)[3] for l in increased[len(base):]]
        assert copy_payloads == original_payloads

    def test_paper_example_shift(self):
        """Section 6: order (A,B,C,D,E,F), record "B A C E" -> "C B D F"."""
        from repro.join.records import make_line

        # craft frequencies so the order is exactly a<b<c<d<e<f
        lines = [
            make_line(0, ["b a c e", "x"]),
            make_line(1, ["b c d e f", "x"]),
            make_line(2, ["c d e f", "x"]),
            make_line(3, ["d e f", "x"]),
            make_line(4, ["e f", "x"]),
            make_line(5, ["f", "x"]),
        ]
        from repro.join.records import RecordSchema

        schema = RecordSchema((1,))  # the second field is a non-join payload
        order = token_shift_order(lines, schema)
        assert order == ["a", "b", "c", "d", "e", "f"]
        increased = increase_dataset(lines, 2, schema)
        shifted_first = parse_fields(increased[6])[1]
        assert shifted_first == "c b d f"

    def test_invalid_factor(self, base):
        with pytest.raises(ValueError):
            increase_dataset(base, 0)


class TestLoaders:
    def test_roundtrip(self, tmp_path):
        lines = generate_dblp(20)
        path = tmp_path / "records.tsv"
        assert write_records(path, lines) == 20
        assert read_records(path) == lines

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("1\ta\n\n2\tb\n")
        assert read_records(path) == ["1\ta", "2\tb"]
