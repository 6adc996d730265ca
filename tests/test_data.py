"""Dataset pipeline tests: parsing, sessionization, filters, splits, instances."""

import gc
import gzip
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxyrec import data as D
from proxyrec.data import (
    FilterConfig,
    PredictionInstance,
    Session,
    apply_filters,
    build_sessions,
    chronological_split,
    expand_all,
    expand_instances,
    flag_known_users,
    format_stats,
    load_interactions,
    read_split_manifest,
    sample_negatives,
    split_stats,
    write_split_manifest,
)
from proxyrec.errors import (
    ConfigError,
    DataError,
    EmptyInputError,
    ParseError,
    SamplingError,
    SplitError,
)
from reference import (
    reference_load_interactions,
    reference_negatives,
    reference_read_split,
)

DAY = D.SECONDS_PER_DAY

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write("\t".join(str(x) for x in r) + "\n")


class TestLoading:
    def test_dense_remap_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "x.tsv"
        write_tsv(p, [("u1", "a", 10), ("u1", "b", 20), ("u2", "a", 30)])
        records, item_map = load_interactions(str(p))
        assert item_map == {"a": 1, "b": 2}
        assert [r.item_id for r in records] == [1, 2, 1]
        assert [r.user_tag for r in records] == ["u1", "u1", "u2"]
        assert [r.timestamp for r in records] == [10, 20, 30]

    def test_csv_delimiter_inferred(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("u,a,1\nu,b,2\n")
        records, _ = load_interactions(str(p))
        assert len(records) == 2

    def test_gzip_input(self, tmp_path):
        p = tmp_path / "x.tsv.gz"
        with gzip.open(p, "wt") as fh:
            fh.write("u\ta\t1\nu\tb\t2\n")
        records, _ = load_interactions(str(p))
        assert len(records) == 2

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u\ta\t1\nu\tb\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(str(p))

    def test_bad_timestamp_names_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u\ta\tnoon\n")
        with pytest.raises(ParseError, match="line 1"):
            load_interactions(str(p))

    def test_empty_item_field_names_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u\ta\t1\nu\t\t2\n")
        with pytest.raises(ParseError, match=r"x\.tsv: line 2: empty item field"):
            load_interactions(str(p))

    def test_empty_session_field_names_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u1\ts1\ta\t1\nu2\t\tb\t2\nu3\t\tc\t3\n")
        with pytest.raises(ParseError, match=r"x\.tsv: line 2: empty session field"):
            load_interactions(str(p), columns="user,session,item,time")

    def test_empty_user_field_stays_anonymous(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("\ts1\ta\t1\nu\ts1\tb\t2\n")
        records, _ = load_interactions(str(p), columns="user,session,item,time")
        assert [r.user_tag for r in records] == [None, "u"]
        assert [r.session_tag for r in records] == ["s1", "s1"]

    def test_empty_input(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("")
        with pytest.raises(EmptyInputError):
            load_interactions(str(p))

    def test_header_skip_and_skip_column(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("user\titem\tjunk\ttime\nu\ta\tzzz\t5\n")
        records, _ = load_interactions(str(p), columns="user,item,-,time", skip_header=True)
        assert len(records) == 1 and records[0].timestamp == 5

    def test_bad_column_spec(self, tmp_path):
        with pytest.raises(DataError):
            load_interactions("whatever", columns="user,thing,time")
        with pytest.raises(DataError):
            load_interactions("whatever", columns="user,item")

    def test_integer_timestamps_read_exactly(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u\ta\t1700000000123456789\nu\tb\t-7\nu\tc\t+12\n")
        records, _ = load_interactions(str(p))
        # through a float the first would read 1700000000123456768
        assert [r.timestamp for r in records] == [1700000000123456789, -7, 12]

    def test_fractional_timestamps_floored(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("u\ta\t-5.5\nu\tb\t5.5\nu\tc\t-0.25\nu\td\t1e3\nu\te\t7.0\n")
        records, _ = load_interactions(str(p))
        assert [r.timestamp for r in records] == [-6, 5, -1, 1000, 7]

    @pytest.mark.parametrize("stamp", ["noon", "nan", "inf", "-inf", "", "1e400"])
    def test_non_numbers_and_non_finite_timestamps_name_the_line(self, tmp_path, stamp):
        p = tmp_path / "x.tsv"
        p.write_text(f"u\ta\t1\nu\tb\t{stamp}\n")
        with pytest.raises(ParseError) as err:
            load_interactions(str(p))
        assert str(err.value) == f"{p}: line 2: bad timestamp {stamp!r}"

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_restored(self, tmp_path, monkeypatch, enabled):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        good.write_text("u\ta\t1.5\nu\tb\t2\n")
        bad.write_text("u\ta\t1\nu\tb\t2\nu\tc\tnoon\nu\td\t4\n")
        during = []
        floored = D._floored

        def spy(text, where):
            during.append(gc.isenabled())
            return floored(text, where)

        monkeypatch.setattr(D, "_floored", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            records, _ = load_interactions(str(good))
            after_success = gc.isenabled()
            with pytest.raises(ParseError, match="line 3"):
                load_interactions(str(bad))
            after_error = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert [r.timestamp for r in records] == [1, 2]
        assert during == [False, False]  # paused while the rows were read
        assert after_success is enabled and after_error is enabled

    def test_records_are_immutable_named_tuples(self):
        r = D.InteractionRecord(item_id=3, timestamp=5)
        assert r == D.InteractionRecord(3, 5, None, None) and hash(r) == hash((3, 5, None, None))
        assert r._fields == ("item_id", "timestamp", "user_tag", "session_tag")
        with pytest.raises(AttributeError):
            r.item_id = 4
        inst = PredictionInstance(prefix=(1,), target=2, parent_items=(1, 2))
        assert (inst.user_tag, inst.known_user) == (None, False)
        s = Session(items=(4, 5, 6), start_ts=9)
        assert len(s) == 3 and s.user_tag is None


# rows repeat a few item, user and session names; up to two fields of a log
# are then swapped for an empty field, a field holding a delimiter, or a
# timestamp that is no finite number, and one row may lose or gain a field
_NAME = st.sampled_from(["a", "b", "é1", "-", " u "])
_ODD_FIELD = st.sampled_from(["", "x,y", "p;q", "a\tb"])
_STAMP = st.one_of(
    st.integers(-(10 ** 20), 10 ** 20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1700000000123456789", "-5.5", "5.5", "-0.0", "1e3", " 7 ", "1_000"]),
)
_ODD_STAMP = st.sampled_from(["noon", "nan", "inf", "-inf", "", "1e400", "0x10", "1.5.2"])


@st.composite
def interaction_logs(draw):
    """(columns, delimiter, skip_header, text) for a small log."""
    cols = ["item", "time"] + draw(st.lists(st.sampled_from(["user", "session"]),
                                            unique=True))
    cols += ["-"] * draw(st.integers(0, 2))
    cols = draw(st.permutations(cols))
    delimiter = draw(st.sampled_from(["\t", ",", ";"]))
    rows = [[draw(_STAMP) if c == "time" else draw(_NAME) for c in cols]
            for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, at = draw(st.sampled_from(rows)), draw(st.integers(0, len(cols) - 1))
        row[at] = draw(_ODD_STAMP if cols[at] == "time" else _ODD_FIELD)
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[:] = row[:-1] if draw(st.booleans()) else row + ["z"]
    lines = [delimiter.join(row) for row in rows]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")  # a blank line
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return ",".join(cols), delimiter, draw(st.booleans()), text


class TestLoadingMatchesReference:
    @staticmethod
    def outcome(load, path, columns, delimiter, skip_header):
        try:
            return load(path, columns=columns, delimiter=delimiter, skip_header=skip_header)
        except (ParseError, EmptyInputError) as exc:
            return type(exc).__name__, str(exc)

    @PROPERTY
    @given(log=interaction_logs())
    def test_records_item_map_and_errors_match(self, log):
        columns, delimiter, skip_header, text = log
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            got = self.outcome(load_interactions, path, columns, delimiter, skip_header)
            want = self.outcome(reference_load_interactions, path, columns, delimiter,
                                skip_header)
        assert got == want


class TestSessionBuilding:
    def cfg(self, **kw):
        return FilterConfig(min_item_count=1, min_session_len=1, **kw)

    def test_day_boundary_cuts(self):
        recs = [
            D.InteractionRecord(1, 100, "u"),
            D.InteractionRecord(2, 200, "u"),
            D.InteractionRecord(3, DAY + 50, "u"),
        ]
        sessions = build_sessions(recs, self.cfg())
        assert [s.items for s in sessions] == [(1, 2), (3,)]
        assert sessions[0].start_ts // DAY == 0 and sessions[1].start_ts // DAY == 1

    def test_sorted_by_time_within_user(self):
        recs = [
            D.InteractionRecord(2, 500, "u"),
            D.InteractionRecord(1, 100, "u"),
        ]
        (s,) = build_sessions(recs, self.cfg())
        assert s.items == (1, 2)

    def test_over_cap_keeps_most_recent(self):
        # 55 same-day interactions against a cap of 50 keep the last 50
        recs = [D.InteractionRecord(i, 1000 + i, "u") for i in range(1, 56)]
        (s,) = build_sessions(recs, self.cfg(max_session_len=50))
        assert len(s.items) == 50
        assert s.items == tuple(range(6, 56))
        assert s.start_ts == 1006

    def test_drop_over_length_removes_session(self):
        recs = [D.InteractionRecord(i, 1000 + i, "u") for i in range(1, 56)]
        recs += [D.InteractionRecord(1, DAY * 5, "u"), D.InteractionRecord(2, DAY * 5 + 1, "u")]
        sessions = build_sessions(recs, self.cfg(max_session_len=50, drop_over_length=True))
        assert [s.items for s in sessions] == [(1, 2)]

    def test_pregrouped_sessions_ignore_days(self):
        recs = [
            D.InteractionRecord(1, 100, None, "s1"),
            D.InteractionRecord(2, DAY * 3, None, "s1"),
            D.InteractionRecord(3, 50, None, "s2"),
        ]
        sessions = build_sessions(recs, self.cfg())
        assert [s.items for s in sessions] == [(1, 2), (3,)]

    def test_no_day_split_mode(self):
        recs = [
            D.InteractionRecord(1, 100, "u"),
            D.InteractionRecord(2, DAY * 2, "u"),
        ]
        sessions = build_sessions(recs, self.cfg(split_by_day=False))
        assert [s.items for s in sessions] == [(1, 2)]

    def test_anonymize_drops_tags(self):
        recs = [D.InteractionRecord(1, 100, "u"), D.InteractionRecord(2, 101, "u")]
        (s,) = build_sessions(recs, self.cfg(), anonymize=True)
        assert s.user_tag is None


class TestFilters:
    def brute_force(self, sessions, cfg):
        """Independent fixed-point oracle: literal loop until stable."""
        cur = [list(s.items) for s in sessions]
        meta = [(s.start_ts, s.user_tag) for s in sessions]
        while True:
            counts = Counter(i for s in cur for i in s)
            keep_item = lambda i: counts[i] >= cfg.min_item_count
            nxt, nxt_meta = [], []
            for s, m in zip(cur, meta):
                s2 = [i for i in s if keep_item(i)]
                if len(s2) >= cfg.min_session_len:
                    nxt.append(s2)
                    nxt_meta.append(m)
            if nxt == cur:
                return [Session(tuple(s), m[0], m[1]) for s, m in zip(nxt, nxt_meta)]
            cur, meta = nxt, nxt_meta

    def test_cascading_fixed_point(self):
        sessions = [
            Session((1, 2, 5), 0, "a"),
            Session((2, 5), 10, "b"),
            Session((1, 3), 20, "c"),
        ]
        cfg = FilterConfig(min_item_count=2, min_session_len=2)
        got = apply_filters(sessions, cfg)
        # item 3 is rare -> third session drops to length 1 and dies -> item 1
        # becomes rare -> first session sheds it; then everything is stable
        assert [s.items for s in got] == [(2, 5), (2, 5)]
        assert got == self.brute_force(sessions, cfg)

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sessions = [
                Session(tuple(rng.integers(1, 15, size=rng.integers(1, 8))), int(t), None)
                for t in range(rng.integers(3, 25))
            ]
            cfg = FilterConfig(min_item_count=int(rng.integers(1, 4)),
                               min_session_len=int(rng.integers(1, 4)))
            try:
                got = apply_filters(sessions, cfg)
            except EmptyInputError:
                assert not self.brute_force(sessions, cfg)
                continue
            assert got == self.brute_force(sessions, cfg)
            counts = Counter(i for s in got for i in s.items)
            assert all(c >= cfg.min_item_count for c in counts.values())
            assert all(len(s) >= cfg.min_session_len for s in got)

    def test_everything_filtered_raises(self):
        with pytest.raises(EmptyInputError):
            apply_filters([Session((1,), 0, None)], FilterConfig(min_item_count=5, min_session_len=2))

    def test_session_floor_below_one_rejected(self):
        # with a floor of 0, the first session would lose its one rare item
        # and still be kept, as Session(items=())
        assert apply_filters(
            [Session((1,), 0, "u"), Session((2, 3, 2), 1, "u"), Session((3, 2, 3), 2, "u")],
            FilterConfig(min_item_count=2, min_session_len=1),
        ) == [Session((2, 3, 2), 1, "u"), Session((3, 2, 3), 2, "u")]
        for floor in (0, -1):
            with pytest.raises(ConfigError, match="min_session_len"):
                FilterConfig(min_item_count=2, min_session_len=floor)


class TestSplit:
    def make(self, n, items=lambda k: (1, 2, 3)):
        return [Session(items(k), start_ts=k * 100, user_tag=f"u{k % 4}") for k in range(n)]

    def test_25_sessions_split_20_2_3(self):
        split = chronological_split(self.make(25))
        assert (len(split.train), len(split.valid), len(split.test)) == (20, 2, 3)

    def test_chronological_ordering_holds(self):
        sessions = self.make(40)[::-1]  # reversed input order
        split = chronological_split(sessions)
        last_train = max(s.start_ts for s in split.train)
        first_valid = min(s.start_ts for s in split.valid)
        first_test = min(s.start_ts for s in split.test)
        assert last_train < first_valid <= first_test

    def test_too_few_sessions(self):
        with pytest.raises(SplitError):
            chronological_split(self.make(2))

    def test_vocab_pruning_and_length_recheck(self):
        sessions = [Session((10, 20), t * 10, None) for t in range(8)]
        sessions.append(Session((10, 99), 900, None))   # 99 unseen in train
        sessions.append(Session((99, 77), 1000, None))  # fully unseen -> dies
        split = chronological_split(sessions, min_session_len=2)
        assert len(split.train) == 8
        for s in split.valid + split.test:
            assert all(1 <= i <= split.item_count for i in s.items)
        assert len(split.valid) + len(split.test) == 0  # both survivors were pruned away

    def test_session_floor_below_one_rejected(self):
        # with a floor of 0, the last session, all of whose items are
        # missing from the train vocabulary, would be kept empty
        sessions = [Session((10, 20), t * 10, None) for t in range(8)]
        sessions += [Session((10, 20), 900, None), Session((99, 77), 1000, None)]
        split = chronological_split(sessions, min_session_len=1)
        assert [s.items for s in split.valid + split.test] == [(1, 2)]
        with pytest.raises(SplitError, match="min_session_len"):
            chronological_split(sessions, min_session_len=0)

    def test_compaction_to_dense_train_vocab(self):
        sessions = [Session((50, 7), 0, None), Session((7, 50), 10, None),
                    Session((50, 7), 20, None), Session((7, 50), 30, None)]
        split = chronological_split(sessions)
        assert split.item_count == 2
        assert split.id_map == {7: 1, 50: 2}
        assert split.train[0].items == (2, 1)

    def test_stable_tie_break_on_equal_start(self):
        sessions = [Session((1, 2), 100, f"u{k}") for k in range(10)]
        split = chronological_split(sessions)
        assert [s.user_tag for s in split.train] == [f"u{k}" for k in range(8)]


class TestInstances:
    def test_repeat_expansion_count(self):
        s = Session((4, 2, 7, 4), 0, "u")
        inst = expand_instances(s, "repeat")
        assert len(inst) == 3
        assert inst[0] == PredictionInstance((4,), 2, (4, 2, 7, 4), "u", False)
        assert inst[2].prefix == (4, 2, 7) and inst[2].target == 4

    def test_unseen_omits_targets_already_in_prefix(self):
        s = Session((4, 2, 7, 4), 0, None)
        inst = expand_instances(s, "unseen")
        assert [(i.prefix, i.target) for i in inst] == [((4,), 2), ((4, 2), 7)]

    def test_parent_items_carry_whole_session(self):
        s = Session((1, 2, 3), 0, None)
        for i in expand_instances(s, "repeat"):
            assert i.parent_items == (1, 2, 3)

    def test_random_sessions_instance_count(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            items = tuple(int(x) for x in rng.integers(1, 9, size=n))
            s = Session(items, 0, None)
            assert len(expand_instances(s, "repeat")) == n - 1
            unseen = expand_instances(s, "unseen")
            assert all(i.target not in i.prefix for i in unseen)

    def test_short_session_rejected(self):
        with pytest.raises(DataError):
            expand_instances(Session((1,), 0, None), "repeat")

    def test_unknown_task_rejected(self):
        with pytest.raises(DataError):
            expand_instances(Session((1, 2), 0, None), "next")

    def test_known_user_flagging(self):
        s = Session((1, 2), 0, "alice")
        (i,) = expand_instances(s, "repeat", known_users={"alice"})
        assert i.known_user
        (i,) = expand_instances(s, "repeat", known_users={"bob"})
        assert not i.known_user


class TestNegativeSampling:
    def test_monte_carlo_never_hits_target(self):
        rng = np.random.default_rng(99)
        N, target = 37, 19
        draws = sample_negatives(np.full(10_000, target), N, 5, rng)
        assert draws.shape == (10_000, 5)
        assert not (draws == target).any()
        ordered = np.sort(draws, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()  # 5 distinct per row
        assert draws.min() >= 1 and draws.max() <= N

    def test_uniform_coverage(self):
        rng = np.random.default_rng(1)
        N, target = 6, 3
        hits = Counter(sample_negatives(np.full(6000, target), N, 2, rng).ravel().tolist())
        assert set(hits) == {1, 2, 4, 5, 6}
        expect = 6000 * 2 / 5
        for c in hits.values():
            assert abs(c - expect) < 0.1 * expect

    def test_overdraw_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingError):
            sample_negatives(np.array([1]), 10, 10, rng)

    def test_seeded_reproducibility(self):
        a = sample_negatives(np.array([4]), 100, 10, np.random.default_rng(7))
        b = sample_negatives(np.array([4]), 100, 10, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "N,C",
        [
            (7211, 10),  # Floyd's algorithm, batched
            (40_000, 800),  # numpy's tail shuffle: 800 > 39_999 // 50
            (40_000, 799),  # Floyd's algorithm, batched: 799 <= 39_999 // 50
            (65, 64),  # C = N - 1 at the batched limit
            (12, 11),  # C = N - 1
            (2, 1),  # C = N - 1: a single candidate
        ],
    )
    def test_equals_per_row_choice(self, N, C):
        targets = np.random.default_rng(N + C).integers(1, N + 1, size=16)
        targets[:2] = (1, N)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_negatives(targets, N, C, ours)
        np.testing.assert_array_equal(got, reference_negatives(targets, N, C, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_equals_per_row_choice_on_random_shapes(self):
        shapes = np.random.default_rng(123)
        for _ in range(200):
            N = int(shapes.integers(2, 12_000))
            C = int(shapes.integers(1, min(N - 1, 80) + 1))
            targets = shapes.integers(1, N + 1, size=int(shapes.integers(1, 20)))
            seed = int(shapes.integers(1 << 30))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(targets, N, C, ours)
            np.testing.assert_array_equal(got, reference_negatives(targets, N, C, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestKnownUsers:
    def sessions(self):
        out = []
        for u, count in [("a", 12), ("b", 11), ("c", 10), ("d", 3)]:
            out += [Session((1, 2), t, u) for t in range(count)]
        return out

    def test_eligibility_threshold(self):
        got = flag_known_users(self.sessions(), 1.0, 10, np.random.default_rng(0))
        assert got == ["a", "b", "c"]  # d has too few sessions

    def test_fraction_floor_and_determinism(self):
        g1 = flag_known_users(self.sessions(), 0.5, 10, np.random.default_rng(3))
        g2 = flag_known_users(self.sessions(), 0.5, 10, np.random.default_rng(3))
        assert g1 == g2 and len(g1) == 1  # floor(3 * 0.5)

    def test_zero_ratio(self):
        assert flag_known_users(self.sessions(), 0.0, 10, np.random.default_rng(0)) == []


class TestManifest:
    def pipeline(self, tmp_path, out_name="out"):
        p = tmp_path / "raw.tsv"
        rng = np.random.default_rng(123)
        rows = []
        for day in range(30):
            user = f"u{day % 5}"
            for j in range(int(rng.integers(2, 6))):
                rows.append((user, f"it{rng.integers(1, 20)}", day * DAY + j))
        write_tsv(p, rows)
        records, item_map = load_interactions(str(p))
        cfg = FilterConfig(min_item_count=2, min_session_len=2)
        sessions = apply_filters(build_sessions(records, cfg), cfg)
        split = chronological_split(sessions, min_session_len=cfg.min_session_len)
        out = tmp_path / out_name
        write_split_manifest(split, str(out), item_map, cfg, (8, 1, 1))
        return out

    def test_roundtrip(self, tmp_path):
        out = self.pipeline(tmp_path)
        split, manifest = read_split_manifest(str(out))
        assert manifest["version"] == 1
        assert len(split.train) == manifest["counts"]["train"]
        assert split.item_count == manifest["item_count"]
        vocab = {i for s in split.train for i in s.items}
        assert vocab == set(range(1, split.item_count + 1))

    def test_byte_identical_reruns(self, tmp_path):
        out1 = self.pipeline(tmp_path, "out1")
        out2 = self.pipeline(tmp_path, "out2")
        for fname in sorted(os.listdir(out1)):
            b1 = (out1 / fname).read_bytes()
            b2 = (out2 / fname).read_bytes()
            assert b1 == b2, fname

    def test_failed_rerun_keeps_the_earlier_split(self, tmp_path, monkeypatch):
        # a second split of fewer sessions into the same directory; its valid
        # file fails to open after its train file is written
        out = self.pipeline(tmp_path)
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        old = read_split_manifest(str(out))
        split = old[0]
        smaller = D.SessionSplit(train=split.train[1:], valid=split.valid, test=split.test,
                                 item_count=split.item_count)

        def failing_open(path, *args, **kwargs):
            if os.path.basename(path) == "valid.jsonl":
                raise OSError(28, "No space left on device", path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(D, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_split_manifest(smaller, str(out), {}, FilterConfig(), (8, 1, 1))
        monkeypatch.undo()
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert read_split_manifest(str(out)) == old

    def test_item_map_covers_final_vocab(self, tmp_path):
        out = self.pipeline(tmp_path)
        lines = (out / "item_map.tsv").read_text().splitlines()
        finals = [int(l.split("\t")[1]) for l in lines]
        split, _ = read_split_manifest(str(out))
        assert finals == list(range(1, split.item_count + 1))

    def test_stats_file_format(self, tmp_path):
        out = self.pipeline(tmp_path)
        text = (out / "stats.txt").read_text()
        lines = text.split("\n")
        assert lines[0].startswith("# interactions\t")
        assert lines[1].startswith("# items\t")
        assert lines[2].startswith("# sessions\t")
        assert lines[3].startswith("avg. length\t")
        assert text.endswith("\n")

    def test_stats_math(self):
        split = D.SessionSplit(
            train=[Session((1, 2, 3), 0, None)],
            valid=[Session((1, 2), 10, None)],
            test=[Session((2, 3), 20, None)],
            item_count=3,
        )
        st = split_stats(split)
        assert st == {"interactions": 7, "items": 3, "sessions": 3, "avg_length": 7 / 3}
        assert format_stats(st) == "# interactions\t7\n# items\t3\n# sessions\t3\navg. length\t2.33\n"

    @pytest.mark.parametrize("name", ["train.jsonl", "valid.jsonl", "test.jsonl"])
    @pytest.mark.parametrize("edit", ["drop", "repeat"])
    def test_lost_or_repeated_line_names_file_and_counts(self, tmp_path, name, edit):
        out = self.pipeline(tmp_path)
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        expected = counts[name.split(".")[0]]
        lines = (out / name).read_text().splitlines(keepends=True)
        lines[-1:] = [] if edit == "drop" else lines[-1:] * 2
        (out / name).write_text("".join(lines))
        found = expected - 1 if edit == "drop" else expected + 1
        with pytest.raises(DataError, match=f"{name}: {found} sessions, but the manifest "
                                            f"counts {expected}"):
            read_split_manifest(str(out))

    @pytest.mark.parametrize(
        "counts",
        [None, [5, 1, 1], {"train": 5, "valid": 1}, {"train": 5.0, "valid": 1, "test": 1},
         {"train": True, "valid": 1, "test": 1}],
        ids=["missing", "list", "two-splits", "float", "bool"],
    )
    def test_counts_must_be_three_ints(self, tmp_path, counts):
        out = self.pipeline(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        if counts is None:
            del manifest["counts"]
        else:
            manifest["counts"] = counts
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="'counts'"):
            read_split_manifest(str(out))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_split_manifest(str(tmp_path / "nope"))

    @PROPERTY
    @given(sessions=st.lists(st.tuples(
        st.lists(st.integers(1, 10 ** 12), min_size=1, max_size=6).map(tuple),
        st.integers(-(10 ** 20), 10 ** 20),
        st.one_of(st.none(), st.text(max_size=6)),
    ), min_size=1, max_size=6))
    def test_split_files_hold_json_dumps_lines(self, sessions):
        sessions = [Session(*fields) for fields in sessions]
        split = D.SessionSplit(train=sessions, valid=sessions[:1], test=[], item_count=10 ** 12)
        with tempfile.TemporaryDirectory() as tmp:
            write_split_manifest(split, tmp, {}, FilterConfig(), (8, 1, 1))
            with open(os.path.join(tmp, "train.jsonl"), "rb") as fh:
                got = fh.read()
        want = "".join(
            json.dumps({"items": list(s.items), "start_ts": s.start_ts, "user": s.user_tag},
                       sort_keys=True, separators=(",", ":")) + "\n"
            for s in sessions
        )
        assert got == want.encode("utf-8")

    # lines a damaged split file may hold, each checked differently: the bulk
    # checks must name the same first bad line, with the same words, as one
    # json.loads and one shape check per line
    ODD_LINES = [
        '{"items":[1,2],"start_ts":0,"user":null}', '{"items":[],"start_ts":0,"user":null}',
        '{"items":[0],"start_ts":0,"user":null}', '{"items":[99],"start_ts":0,"user":"u"}',
        '{"items":[true],"start_ts":0,"user":null}', '{"items":[1.0],"start_ts":0,"user":"u"}',
        '{"items":[1],"start_ts":1.5,"user":null}', '{"items":[1],"start_ts":false,"user":null}',
        '{"items":[1],"start_ts":0}', '{"items":[1],"start_ts":0,"user":5}',
        '{"items":[2],"user":"u","start_ts":3}', '{"items":"1","start_ts":0,"user":null}',
        '{"items":[1]} {}', ' {"items":[1],"start_ts":0,"user":"x"} ', '[1]', '7', 'nul',
        '"items"', '{"items":[1],', "[" * 5000, "", "  ",
    ]

    @PROPERTY
    @given(data=st.data())
    def test_damaged_split_lines_read_as_line_by_line(self, tmp_path_factory, data):
        out = self.pipeline(tmp_path_factory.mktemp("split"))
        for name in data.draw(st.lists(st.sampled_from(["train", "valid", "test"]),
                                       max_size=2)):
            path = out / f"{name}.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            at = data.draw(st.integers(0, len(lines)))
            odd = data.draw(st.sampled_from(self.ODD_LINES))
            lines[at:at + data.draw(st.integers(0, 1))] = [odd + "\n"]
            path.write_text("".join(lines), encoding="utf-8")
        outcomes = []
        for read in (lambda: read_split_manifest(str(out))[0], lambda: reference_read_split(out)):
            try:
                outcomes.append(read())
            except DataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "line",
        ['{"a":[1]}\n', '{"a":[1]}', ' {"a":[1]}\n', '{"a":[1]} \n', '{"a":[1]}\xa0\n',
         '\ufeff{"a":[1]}\n', '{"a":1}{"b":2}\n', '{"a":1},\n', '{"a":\n', '"x\ty"\n',
         'NaN\n', '[1,2]\n', '{"a":1}\n\n', '1e400\n'],
    )
    def test_line_parse_matches_json_loads(self, line):
        # the one-scan fast path must accept, reject and word errors as json.loads does
        try:
            want = json.loads(line)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                D._parse_line(line)
            assert str(got.value) == str(exc)
        else:
            got = D._parse_line(line)
            assert type(got) is type(want) and repr(got) == repr(want)
