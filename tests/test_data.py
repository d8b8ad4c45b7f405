"""Generator closed forms, window bookkeeping, scaling, and the CSV formats.

Leakage and round-trip behavior here is what the downstream ablation numbers
silently depend on, so the split boundaries are checked structurally (window
coverage per split) rather than by spot-checking values.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odegate.data import (Scaler, ShockScenario, build_dataset, default_graph,
                          generate_shock_series, load_dataset_files,
                          make_windows, read_events_csv, read_meta,
                          read_series_csv, shock_envelope, window_count,
                          write_dataset_files, write_events_csv,
                          write_series_csv)
from odegate.errors import ParseError, ValidationError


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ShockScenario(n_nodes=0)
        with pytest.raises(ValidationError):
            ShockScenario(total_t=1)
        with pytest.raises(ValidationError):
            ShockScenario(period=0.0)
        with pytest.raises(ValidationError):
            ShockScenario(shock_decay=0.0)
        with pytest.raises(ValidationError):
            ShockScenario(shock_rate=150.0)
        with pytest.raises(ValidationError):
            ShockScenario(shock_mag_lo=5.0, shock_mag_hi=2.0)

    @pytest.mark.parametrize("diffusion", [-50.0, -0.01, 1.01])
    def test_diffusion_outside_unit_interval_rejected(self, diffusion):
        # outside [0, 1] the smooth step I + c(A - I) can expand the state
        with pytest.raises(ValidationError, match=r"diffusion must be in \[0, 1\]"):
            ShockScenario(diffusion=diffusion)

    @pytest.mark.parametrize("diffusion", [0.0, 1.0])
    def test_diffusion_bounds_accepted(self, diffusion):
        sc = ShockScenario(n_nodes=4, total_t=200, diffusion=diffusion)
        series, _ = generate_shock_series(sc, default_graph(4))
        assert np.abs(series).max() < 50.0

    @pytest.mark.parametrize("kwargs", [
        {"amplitude": math.nan}, {"period": math.inf}, {"diffusion": math.nan},
        {"shock_rate": math.nan}, {"shock_mag_lo": -math.inf},
        {"shock_mag_hi": math.inf}, {"shock_decay": math.nan},
        {"shock_mag_lo": -1e308, "shock_mag_hi": 1e308},
    ])
    def test_non_finite_rejected(self, kwargs):
        # the last case is finite, but its magnitude range is not
        with pytest.raises(ValidationError, match="finite"):
            ShockScenario(**kwargs)


class TestDefaultGraph:
    def test_ring_plus_chords(self):
        g = default_graph(8, seed=0)
        a = g.adjacency()
        for i in range(7):
            assert a[i, i + 1] > 0
        assert a[0, 7] > 0
        assert len(g.edges) == 8 + 2   # ring edges plus n/4 chords

    def test_deterministic(self):
        assert default_graph(10, seed=3).edges == default_graph(10, seed=3).edges

    def test_tiny_graphs(self):
        assert len(default_graph(1).edges) == 0
        assert len(default_graph(2).edges) == 1


class TestShockEnvelope:
    def test_single_hit_decays_exponentially(self):
        hits = np.zeros((10, 2))
        mags = np.zeros((10, 2))
        hits[3, 1] = 1.0
        mags[3, 1] = 5.0
        decay = 4.0
        env = shock_envelope(hits, mags, decay)
        assert np.all(env[:, 0] == 0.0)
        assert np.all(env[:3, 1] == 0.0)
        for t in range(3, 10):
            assert env[t, 1] == pytest.approx(5.0 * math.exp(-(t - 3) / decay),
                                              rel=1e-12)

    def test_hits_superpose(self):
        hits = np.zeros((6, 1))
        mags = np.zeros((6, 1))
        hits[[0, 2], 0] = 1.0
        mags[[0, 2], 0] = [2.0, 3.0]
        env = shock_envelope(hits, mags, 2.0)
        f = math.exp(-0.5)
        assert env[2, 0] == pytest.approx(2.0 * f * f + 3.0, rel=1e-12)

    def test_bitwise_the_tick_loop(self):
        rng = np.random.default_rng(4)
        hits = (rng.random((300, 5)) < 0.1).astype(np.float64)
        mags = rng.uniform(3.0, 8.0, size=(300, 5))
        factor = math.exp(-1.0 / 12.0)
        expected = np.zeros((300, 5))
        expected[0] = hits[0] * mags[0]
        for t in range(1, 300):
            expected[t] = expected[t - 1] * factor + hits[t] * mags[t]
        assert shock_envelope(hits, mags, 12.0).tobytes() == expected.tobytes()


class TestGenerator:
    def test_no_shocks_gives_smooth_only(self):
        sc = ShockScenario(n_nodes=4, total_t=50, shock_rate=0.0, seed=1)
        g = default_graph(4, seed=1)
        series, events = generate_shock_series(sc, g)
        assert events == []
        assert np.abs(series).max() <= sc.amplitude * 2.0

    def test_zero_diffusion_is_pure_sinusoid(self):
        # the smooth recurrence telescopes to the base wave when mixing is off
        sc = ShockScenario(n_nodes=3, total_t=40, diffusion=0.0,
                           shock_rate=0.0, amplitude=1.5, period=16.0, seed=2)
        series, _ = generate_shock_series(sc, default_graph(3, seed=2))
        rng = np.random.default_rng(2)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        t = np.arange(40).reshape(-1, 1)
        base = 1.5 * np.sin(2.0 * np.pi * t / 16.0 + phases)
        assert np.allclose(series, base, atol=1e-12)

    def test_flat_base_single_shock_closed_form(self):
        # amplitude 0 leaves only the envelope; check the decay law end to end
        sc = ShockScenario(n_nodes=2, total_t=60, amplitude=0.0,
                           shock_rate=2.0, seed=5)
        series, events = generate_shock_series(sc, default_graph(2, seed=5))
        assert len(events) > 0
        ev = events[0]
        tail = [e for e in events if e.node == ev.node and e.t > ev.t]
        horizon = (tail[0].t if tail else 60) - ev.t
        for dt_ in range(min(horizon, 5)):
            expected = sum(e.magnitude * math.exp(-(ev.t + dt_ - e.t) / sc.shock_decay)
                           for e in events
                           if e.node == ev.node and e.t <= ev.t + dt_)
            assert series[ev.t + dt_, ev.node] == pytest.approx(expected, rel=1e-12)

    def test_events_match_series_jumps(self):
        sc = ShockScenario(n_nodes=5, total_t=200, seed=7)
        series, events = generate_shock_series(sc, default_graph(5, seed=7))
        assert all(0 <= e.t < 200 and 0 <= e.node < 5 for e in events)
        assert all(sc.shock_mag_lo <= e.magnitude <= sc.shock_mag_hi
                   for e in events)

    def test_deterministic(self):
        sc = ShockScenario(n_nodes=4, total_t=100, seed=9)
        g = default_graph(4, seed=9)
        s1, e1 = generate_shock_series(sc, g)
        s2, e2 = generate_shock_series(sc, g)
        assert np.array_equal(s1, s2) and e1 == e2

    def test_graph_size_mismatch(self):
        with pytest.raises(ValidationError):
            generate_shock_series(ShockScenario(n_nodes=4, total_t=50),
                                  default_graph(5))


class TestWindows:
    def test_count_formula(self):
        assert window_count(100, 12, 12, 1) == 77
        assert window_count(24, 12, 12, 1) == 1
        assert window_count(23, 12, 12, 1) == 0
        assert window_count(30, 12, 12, 4) == 2

    def test_alignment(self):
        series = np.arange(40, dtype=np.float64).reshape(20, 2) * [1.0, 10.0]
        ws = make_windows(series, window=4, horizon=3, stride=2, t_offset=100)
        assert ws.count == window_count(20, 4, 3, 2)
        for i in range(ws.count):
            o = i * 2
            assert ws.origins[i] == 100 + o
            assert np.array_equal(ws.x[i, :, :, 0], series[o:o + 4].T)
            assert np.array_equal(ws.y[i], series[o + 4:o + 7].T)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_windows(np.zeros((10,)), 2, 2)
        with pytest.raises(ValidationError):
            make_windows(np.zeros((10, 2)), 0, 2)


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_window_count_matches_construction(length, window, horizon, stride):
    series = np.random.default_rng(length).random((length, 2))
    ws = make_windows(series, window, horizon, stride, t_offset=7)
    assert ws.count == window_count(length, window, horizon, stride)
    if ws.count > 0:
        last = (ws.count - 1) * stride
        assert last + window + horizon <= length
        assert last + stride + window + horizon > length
    for i in range(ws.count):   # the window-by-window slicing, bit for bit
        o = i * stride
        assert ws.origins[i] == 7 + o
        assert ws.x[i, :, :, 0].tobytes() == series[o:o + window].T.tobytes()
        assert ws.y[i].tobytes() == series[o + window:o + window + horizon].T.tobytes()


class TestScaler:
    def test_round_trip_tight(self):
        rng = np.random.default_rng(0)
        segment = rng.standard_normal((50, 4)) * 7.0 + 3.0
        sc = Scaler.fit(segment)
        probe = rng.standard_normal((10, 4)) * 100.0
        assert np.abs(sc.inverse(sc.transform(probe)) - probe).max() < 1e-12

    def test_transform_standardizes_fit_segment(self):
        rng = np.random.default_rng(1)
        segment = rng.standard_normal((200, 3)) * 2.0 + 5.0
        scaled = Scaler.fit(segment).transform(segment)
        assert abs(scaled.mean()) < 1e-12
        assert abs(scaled.std() - 1.0) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError, match="channel 0"):
            Scaler.fit(np.full((10, 2), 3.0))

    @pytest.mark.parametrize("errors", ["warn", "raise"])
    def test_overflow_names_the_cell(self, errors):
        # the square in std() overflows past ~1.34e154; with and without the
        # CLI's raising errstate this is bad data, not a numeric fault
        segment = np.random.default_rng(2).standard_normal((10, 3))
        segment[4, 1] = 2e154
        with np.errstate(all=errors), \
                pytest.raises(ValidationError, match=r"2e\+154 is at tick 4, node 1"):
            Scaler.fit(segment)


class TestSplits:
    def build(self, total_t=200):
        sc = ShockScenario(n_nodes=4, total_t=total_t, seed=3)
        g = default_graph(4, seed=3)
        series, events = generate_shock_series(sc, g)
        return build_dataset(series, events, g, window=6, horizon=4), series

    def test_fractions_and_bounds(self):
        ds, _ = self.build()
        assert ds.split_bounds == {"train": (0, 120), "val": (120, 160),
                                   "test": (160, 200)}
        assert ds.splits["train"].count == window_count(120, 6, 4, 1)
        assert ds.splits["val"].count == window_count(40, 6, 4, 1)

    def test_no_window_crosses_a_boundary(self):
        ds, _ = self.build()
        span = ds.window + ds.horizon
        for name, (lo, hi) in ds.split_bounds.items():
            for origin in ds.splits[name].origins:
                assert lo <= origin and origin + span <= hi

    def test_scaler_sees_train_segment_only(self):
        ds, series = self.build()
        assert ds.scaler.mean[0] == series[:120].mean()
        assert ds.scaler.std[0] == series[:120].std()

    def test_windows_are_scaled(self):
        ds, series = self.build()
        first = ds.splits["train"].x[0, :, :, 0]
        expected = ds.scaler.transform(series[:6]).T
        assert np.array_equal(first, expected)

    def test_series_lost_to_scaling_rejected(self):
        ds, series = self.build()
        assert np.abs(ds.scaler.inverse(ds.scaler.transform(series)) - series).max() \
            <= 1e-12 * np.abs(series).max()
        g = default_graph(4, seed=3)
        series[10, 1] = 1.3e154
        with pytest.raises(ValidationError, match="standardizing .* at tick 0, node 0"):
            build_dataset(series, [], g, window=6, horizon=4)

    def test_train_too_short_rejected(self):
        sc = ShockScenario(n_nodes=2, total_t=12, seed=0)
        g = default_graph(2)
        series, events = generate_shock_series(sc, g)
        with pytest.raises(ValidationError):
            build_dataset(series, events, g, window=6, horizon=4)


class TestCsvFormats:
    def test_series_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        series = rng.standard_normal((30, 3)) * 1e3
        series[0, 0] = 0.1 + 0.2
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        assert np.array_equal(read_series_csv(path), series)

    def test_series_parse_errors(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,node_0\n0,1.0\n1,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_series_csv(path)
        path.write_text("t,node_0\n0,1.0\n2,1.0\n")
        with pytest.raises(ParseError, match="out of order"):
            read_series_csv(path)
        path.write_text("time,node_0\n")
        with pytest.raises(ParseError, match="header"):
            read_series_csv(path)
        path.write_text("t,node_0\n0,1.0,9.0\n")
        with pytest.raises(ParseError, match="cells"):
            read_series_csv(path)
        path.write_text("t,node_0,node_1\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_series_csv(path)

    def test_events_round_trip(self, tmp_path):
        sc = ShockScenario(n_nodes=3, total_t=150, shock_rate=3.0, seed=6)
        _, events = generate_shock_series(sc, default_graph(3, seed=6))
        path = tmp_path / "events.csv"
        write_events_csv(path, events)
        assert read_events_csv(path) == list(enumerate(events, start=2))

    def test_dataset_files_round_trip(self, tmp_path):
        sc = ShockScenario(n_nodes=4, total_t=80, seed=8)
        g = default_graph(4, seed=8)
        series, events = generate_shock_series(sc, g)
        write_dataset_files(tmp_path, sc, g, series, events)
        r_series, r_events, r_graph, meta = load_dataset_files(tmp_path)
        assert np.array_equal(r_series, series)
        assert r_events == events
        assert np.array_equal(r_graph.adjacency(), g.adjacency())
        assert meta["n_nodes"] == 4 and meta["in_dim"] == 1
        assert meta["tick_seconds"] == 300

    def test_meta_requires_keys(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"n_nodes": 3}\n')
        with pytest.raises(ParseError, match="missing keys"):
            read_meta(path)
        path.write_text("not json")
        with pytest.raises(ParseError):
            read_meta(path)
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="JSON object"):
            read_meta(path)

    @pytest.mark.parametrize("n_nodes", ['"4"', "0", "-2", "4.0", "true", "null"])
    def test_meta_n_nodes_must_be_positive_int(self, tmp_path, n_nodes):
        path = tmp_path / "meta.json"
        path.write_text(f'{{"n_nodes": {n_nodes}, "in_dim": 1, "tick_seconds": 300, '
                        f'"edge_list_path": "edges.csv"}}\n')
        with pytest.raises(ParseError, match="n_nodes must be a positive integer"):
            read_meta(path)

    @pytest.mark.parametrize("key", ["in_dim", "tick_seconds"])
    @pytest.mark.parametrize("value", ["1.0", "true", "0", '"1"', "null"])
    def test_meta_int_keys_must_be_positive_int(self, tmp_path, key, value):
        payload = {"n_nodes": "3", "in_dim": "1", "tick_seconds": "300",
                   "edge_list_path": '"edges.csv"', key: value}
        path = tmp_path / "meta.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in payload.items()) + "}\n")
        with pytest.raises(ParseError, match=f"{key} must be a positive integer"):
            read_meta(path)

    @pytest.mark.parametrize("row", ["-5,0,4.0", "80,0,4.0", "99999,0,4.0",
                                     "5,99,4.0", "5,0,nan"],
                             ids=["tick_negative", "tick_at_end", "tick_far_past_end",
                                  "node_out_of_range", "nan_magnitude"])
    def test_bad_event_row_names_line(self, tmp_path, row):
        sc = ShockScenario(n_nodes=4, total_t=80, seed=8)
        g = default_graph(4, seed=8)
        series, events = generate_shock_series(sc, g)
        write_dataset_files(tmp_path, sc, g, series, events)
        with open(tmp_path / "events.csv", "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValidationError, match=f"events.csv line {len(events) + 2}:"):
            load_dataset_files(tmp_path)

    def test_bad_event_row_after_blank_line_names_its_line(self, tmp_path):
        sc = ShockScenario(n_nodes=4, total_t=80, seed=8)
        g = default_graph(4, seed=8)
        series, events = generate_shock_series(sc, g)
        write_dataset_files(tmp_path, sc, g, series, events)
        with open(tmp_path / "events.csv", "a") as fh:
            fh.write("\n5,99,4.0\n")
        with pytest.raises(ValidationError, match=f"events.csv line {len(events) + 3}: node 99"):
            load_dataset_files(tmp_path)

    def test_dataset_with_more_than_one_channel_rejected(self, tmp_path):
        sc = ShockScenario(n_nodes=4, total_t=80, seed=8)
        g = default_graph(4, seed=8)
        series, events = generate_shock_series(sc, g)
        write_dataset_files(tmp_path, sc, g, series, events)
        meta = (tmp_path / "meta.json").read_text()
        (tmp_path / "meta.json").write_text(meta.replace('"in_dim": 1,', '"in_dim": 2,'))
        with pytest.raises(ParseError, match="in_dim must be 1"):
            load_dataset_files(tmp_path)

    def test_meta_edge_list_path_must_be_string(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"n_nodes": 3, "in_dim": 1, "tick_seconds": 300, '
                        '"edge_list_path": 7}\n')
        with pytest.raises(ParseError, match="edge_list_path"):
            read_meta(path)

    @pytest.mark.parametrize("name", ["/abs/edges.csv", "sub/", "", ".", "..",
                                      "edges\0.csv"])
    def test_meta_edge_list_path_must_be_a_file_name(self, tmp_path, name):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"n_nodes": 3, "in_dim": 1, "tick_seconds": 300,
                                    "edge_list_path": name}))
        with pytest.raises(ParseError, match=re.escape(f"meta.json: edge_list_path must "
                                                       f"be a file name in the data "
                                                       f"directory, got {name!r}")):
            read_meta(path)
