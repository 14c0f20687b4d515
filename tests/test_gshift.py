import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmdyn.gshift
from tmdyn import (
    ASequence,
    CantorPoint,
    GeneralizedShift,
    NotInImageError,
    State,
    Symbol,
    block_encode,
    builtin_machine,
    cantor_encode,
    cantor_point_of_config,
    compile_gshift,
    distance,
    embed,
    gshift_step,
    gshift_to_json_dict,
    make_config,
    parse_machine,
    step,
    unembed,
    verify_conjugacy,
)
from tmdyn.corpus import UTM_6_4_TEXT
from tmdyn.gshift import sequence_alphabet
from tmdyn.machine import HALTING_MODES, Configuration

from conftest import machine_configs, random_machine, replay_conjugacy


# --- compilation -----------------------------------------------------------------


def test_compiled_right_move_window(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    assert shift.apply_window((g, u2, b)) == ((g, g, u2), 1)


def test_compiled_left_move_window(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u1 = utm.state_named("u1")
    # (u1, g) writes b and moves left: state rotates to the front
    assert shift.apply_window((b, u1, g)) == ((u1, b, b), -1)


def test_off_image_windows_are_identity(utm):
    shift = compile_gshift(utm)
    u1, u2 = utm.state_named("u1"), utm.state_named("u2")
    b = utm.symbol_named("b")
    window = (u1, u2, b)  # two state tokens: not an embedded configuration
    assert shift.apply_window(window) == (window, 0)


def test_halting_window_fixpoint_identity(utm):
    shift = compile_gshift(utm)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    window = (g, utm.halting, b)
    assert shift.apply_window(window) == (window, 0)
    assert window not in shift.rules  # identities are not stored


def test_halting_window_restart(utm):
    shift = compile_gshift(utm.with_halting_mode("restart"))
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    assert shift.apply_window((g, utm.halting, b)) == ((g, utm.initial, b), 0)


# --- embedding -------------------------------------------------------------------


def test_embed_examples(utm):
    q = utm.state_named("u2")
    b, c = utm.symbol_named("b"), utm.symbol_named("c")
    assert embed(utm, make_config(utm, q)).cells == {0: q}
    assert embed(utm, make_config(utm, q, "b", 0)).cells == {0: q, 1: b}
    assert embed(utm, make_config(utm, q, "c", -1)).cells == {-1: c, 0: q}


def test_unembed_examples(utm):
    q = utm.state_named("u2")
    b = utm.symbol_named("b")
    alphabet = embed(utm, make_config(utm, q)).alphabet
    assert unembed(utm, ASequence(alphabet, {0: q})) == make_config(utm, q)
    assert unembed(utm, ASequence(alphabet, {0: q, 1: b})) == make_config(utm, q, "b", 0)
    with pytest.raises(NotInImageError):
        unembed(utm, ASequence(alphabet, {1: q}))
    with pytest.raises(NotInImageError):
        unembed(utm, ASequence(alphabet, {0: q, 2: utm.state_named("u1")}))


def test_unembed_rejects_foreign_state_ids(utm):
    # Cell 0 holds a state token of the sequence's alphabet that is not a
    # state of the machine: out-of-range id, or id 0 with a foreign name.
    alphabet = tuple(embed(utm, make_config(utm, utm.initial)).alphabet)
    for foreign in (State(len(utm.states), "u1"), State(-1, "u1"), State(0, "zz")):
        seq = ASequence(alphabet + (foreign,), {0: foreign})
        with pytest.raises(NotInImageError, match="cell 0 does not hold a state"):
            unembed(utm, seq)


def test_unembed_rejects_sequences_off_the_image(utm):
    u1, g, b = utm.state_named("u1"), utm.symbol_named("g"), utm.symbol_named("b")
    alphabet = embed(utm, make_config(utm, u1)).alphabet
    # The same tokens with b first, so b fills the sequence and the blank g is stored.
    b_first = (b,) + tuple(t for t in alphabet if t != b)
    with pytest.raises(NotInImageError, match="default"):
        unembed(utm, ASequence(b_first, {0: u1, 1: g}))
    foreign = Symbol(9, "z")
    with pytest.raises(NotInImageError, match="cell 1 does not hold a tape symbol"):
        unembed(utm, ASequence(alphabet + (foreign,), {0: u1, 1: foreign}))
    # On the image, unembed inverts embed.
    rng = random.Random(11)
    for _ in range(200):
        tape = [rng.choice(utm.alphabet) for _ in range(rng.randint(0, 8))]
        seq = embed(utm, make_config(utm, rng.choice(utm.states), tape, rng.randint(-4, 4)))
        assert embed(utm, unembed(utm, seq)) == seq


def test_embed_is_equal_across_separate_parses():
    x_text = "b d g c"
    one, two = parse_machine(UTM_6_4_TEXT), parse_machine(UTM_6_4_TEXT)
    x1 = make_config(one, one.state_named("u3"), x_text, -2)
    x2 = make_config(two, two.state_named("u3"), x_text, -2)
    assert embed(one, x1) == embed(two, x2)
    assert embed(one, x1).alphabet is not embed(two, x2).alphabet


def test_plain_tuple_sequence_equals_embedding(utm):
    x = make_config(utm, utm.state_named("u2"), "b c d", -1)
    seq = embed(utm, x)
    plain = ASequence(tuple(seq.alphabet), dict(seq.cells))
    assert plain == seq
    assert plain.alphabet == seq.alphabet and plain.cells == seq.cells


@given(machine_configs())
@settings(max_examples=60)
def test_embed_round_trip(mc):
    machine, config = mc
    assert unembed(machine, embed(machine, config)) == config


@st.composite
def _config_pairs(draw):
    machine, x = draw(machine_configs())
    cells = draw(
        st.dictionaries(st.integers(-6, 6), st.sampled_from(machine.alphabet), max_size=8)
    )
    y = Configuration(x.state, {i: s for i, s in cells.items() if s != machine.blank})
    return machine, x, y


@given(_config_pairs())
@settings(max_examples=60)
def test_embedding_metric_compatibility(mxy):
    machine, x, y = mxy
    d = distance(x, y)
    if d in (0, 1):
        return
    k = d.denominator.bit_length() - 1  # d = 2**-k: tapes agree on |i| < k
    ex, ey = embed(machine, x), embed(machine, y)
    for i in range(-k + 1, k):
        assert ex.at(i) == ey.at(i)


# --- shift evaluation --------------------------------------------------------------


def test_identity_shift():
    alphabet = ("x", "y")
    seq = ASequence(alphabet, {3: "y"})
    identity = GeneralizedShift(1, {})
    assert gshift_step(identity, seq) == seq


def test_pure_shift_moves_cells():
    alphabet = ("_", "a")
    rules = {}
    for w0 in alphabet:
        rules[(w0,)] = ((w0,), 1)
    bernoulli = GeneralizedShift(0, rules)
    seq = ASequence(alphabet, {0: "a"})
    assert gshift_step(bernoulli, seq).cells == {-1: "a"}


def test_compiled_step_matches_machine_step(utm):
    shift = compile_gshift(utm)
    x = make_config(utm, utm.state_named("u2"), "b b", 0)
    assert gshift_step(shift, embed(utm, x)) == embed(utm, step(utm, x))


def test_compiled_step_rejects_off_alphabet_replacement(utm):
    # The cells gshift_step writes are checked against the alphabet too.
    shift = compile_gshift(utm)
    rules = dict(shift.rules)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    rules[(g, u2, b)] = ((g, "zzz", u2), 1)
    corrupted = GeneralizedShift(1, rules)
    x = make_config(utm, u2, "b", 0)
    with pytest.raises(ValueError, match="not in the alphabet"):
        gshift_step(corrupted, embed(utm, x))


def test_window_length_validated():
    with pytest.raises(ValueError):
        GeneralizedShift(1, {("a",): (("a",), 0)})


# --- conjugacy -------------------------------------------------------------------


def test_conjugacy_corpus(utm, wutm):
    for machine in (utm, wutm):
        report = verify_conjugacy(machine, samples=1000, seed=7)
        assert report.failures == 0
        assert report.passes == 1000
        assert report.first_counterexample is None


def test_conjugacy_detects_corruption(utm, monkeypatch):
    shift = compile_gshift(utm)
    rules = dict(shift.rules)
    g, b = utm.symbol_named("g"), utm.symbol_named("b")
    u2 = utm.state_named("u2")
    rules[(g, u2, b)] = ((b, b, u2), 1)  # wrong replacement
    corrupted = GeneralizedShift(1, rules)
    monkeypatch.setattr(tmdyn.gshift, "compile_gshift", lambda machine: corrupted)
    report = verify_conjugacy(utm, samples=2000, seed=3)
    # Exact values pin the sampling order and its seed.
    assert (report.passes, report.failures) == (1984, 16)
    assert report.first_counterexample == make_config(utm, u2, "b d c", 0)


def _report_tuple(report):
    return report.samples, report.failures, report.first_counterexample


def _corrupted(machine, rng):
    """The compiled shift with one window's amount off by one; the window sits on the image."""
    shift = compile_gshift(machine)
    window = (rng.choice(machine.alphabet), rng.choice(machine.states), rng.choice(machine.alphabet))
    replacement, amount = shift.apply_window(window)
    return GeneralizedShift(1, {**shift.rules, window: (replacement, amount + 1)})


def test_conjugacy_equals_the_frozen_replay(monkeypatch):
    # Corpus machines and 200 seeded random machines, both halting modes,
    # with the compiled shift and with a corrupted one, over several seeds.
    cases = [(builtin_machine(name), seed, 300) for name in ("utm_6_4", "wutm_6_2") for seed in (0, 3, 7)]
    cases += [(random_machine(random.Random(s), 4, 3, halt_prob=0.3), s, 60) for s in range(200)]
    failing = 0
    for machine, seed, samples in cases:
        for mode in HALTING_MODES:
            m = machine.with_halting_mode(mode)
            for shift in (compile_gshift(m), _corrupted(m, random.Random(seed))):
                monkeypatch.setattr(tmdyn.gshift, "compile_gshift", lambda machine, shift=shift: shift)
                expected, _ = replay_conjugacy(m, samples, seed, shift)
                assert _report_tuple(verify_conjugacy(m, samples, seed)) == expected, (seed, mode)
                failing += expected[1] > 0
    assert failing > 200  # the corrupted shifts are caught, so first counterexamples are compared


def test_conjugacy_counts_every_draw_of_a_repeated_counterexample(right_runner, monkeypatch):
    q, zero, one = right_runner.initial, right_runner.blank, right_runner.symbol_named("1")
    shift = compile_gshift(right_runner)
    corrupted = GeneralizedShift(1, {**shift.rules, (zero, q, zero): ((zero, one, q), 1)})  # writes 1, not 0
    monkeypatch.setattr(tmdyn.gshift, "compile_gshift", lambda machine: corrupted)
    expected, drawn = replay_conjugacy(right_runner, 400, 9, corrupted)
    failing = [x for x in drawn if x.state == q and 0 not in x.tape and -1 not in x.tape]
    distinct = {tuple(sorted(x.tape.items())) for x in failing}
    assert expected[1] == len(failing) > len(distinct)  # failing configurations are drawn again
    report = verify_conjugacy(right_runner, 400, 9)
    assert _report_tuple(report) == expected
    assert report.first_counterexample == failing[0]


def test_conjugacy_replays_each_configuration_drawn_by_choice_and_randint_once(wutm, monkeypatch):
    replayed = []

    def recording_step(machine, config):
        replayed.append(config)
        return step(machine, config)

    monkeypatch.setattr(tmdyn.gshift, "step", recording_step)
    report = verify_conjugacy(wutm, 500, 11)
    _, drawn = replay_conjugacy(wutm, 500, 11)
    keys = list(dict.fromkeys((x.state, tuple(x.tape.items())) for x in drawn))
    assert [(x.state, tuple(x.tape.items())) for x in replayed] == keys
    assert report.samples == len(drawn) == 500 > len(keys)


def test_gshift_step_is_copy_update_reindex():
    # The definition: copy the cells, write the replacement at [-r, r], then
    # result cell i holds what the substituted sequence held at i + amount.
    rng = random.Random(4)
    alphabet = ("_", "a", "b")
    for _ in range(300):
        r = rng.randint(1, 3)
        windows = list(itertools.product(alphabet, repeat=2 * r + 1))
        rules = {
            w: (tuple(rng.choice(alphabet) for _ in w), rng.randint(-r, r))
            for w in windows
            if rng.random() < 0.5
        }
        shift = GeneralizedShift(r, rules)
        seq = ASequence(alphabet, {i: rng.choice(alphabet) for i in range(-r - 3, r + 4) if rng.random() < 0.6})
        window = seq.window(-r, r)
        replacement, amount = rules.get(window, (window, 0))
        cells = {i: seq.at(i) for i in range(-r - 4, r + 5)}
        cells.update(zip(range(-r, r + 1), replacement))
        expected = ASequence(alphabet, {i - amount: v for i, v in cells.items()})
        assert gshift_step(shift, seq) == expected


@given(machine_configs())
@settings(max_examples=80)
def test_conjugacy_pointwise_and_forward_invariance(mc):
    machine, config = mc
    shift = compile_gshift(machine)
    image = gshift_step(shift, embed(machine, config))
    assert image == embed(machine, step(machine, config))
    # the image of the embedding is forward invariant: unembed must succeed
    assert unembed(machine, image) == step(machine, config)


# --- binary and Cantor coding ------------------------------------------------------


def test_block_encode_binary_alphabet_is_identity():
    seq = ASequence(("_", "1"), {4: "1", -2: "1"})
    assert block_encode(seq) == {4: 1, -2: 1}


def test_block_encode_default_only_is_empty():
    seq = ASequence(("_", "1"), {})
    assert block_encode(seq) == {}


def test_block_encode_wide_alphabet():
    alphabet = tuple(range(10))
    seq = ASequence(alphabet, {-1: 3})
    # width 4, symbol 3 at cell -1 occupies bit cells [-4, 0) as 0011
    assert block_encode(seq) == {-2: 1, -1: 1}


def test_cantor_examples():
    assert cantor_encode({}) == CantorPoint(Fraction(0), Fraction(0))
    assert cantor_encode({-1: 1}) == CantorPoint(Fraction(2, 3), Fraction(0))
    assert cantor_encode({0: 1}) == CantorPoint(Fraction(0), Fraction(2, 3))


def test_cantor_rejects_non_bits():
    with pytest.raises(ValueError):
        cantor_encode({0: 2})


def test_cantor_injective_window():
    points = set()
    for mask in range(2**10):
        bits = {i - 5: (mask >> i) & 1 for i in range(10)}
        points.add(cantor_encode(bits))
    assert len(points) == 2**10


def test_cantor_digits_stay_in_cantor_set():
    point = cantor_encode({-3: 1, -1: 1, 0: 1, 4: 1})
    for coord in (point.x, point.y):
        assert 0 <= coord <= 1
        # every coordinate is a finite sum of 2/3^k: ternary digits in {0, 2}
        value, digits = coord, []
        for _ in range(12):
            value = value * 3
            digit = int(value)
            digits.append(digit)
            value -= digit
        assert set(digits) <= {0, 2}


def test_cantor_point_of_config_is_continuous_and_injective(utm, wutm):
    # Tapes that agree on |i| < k embed to sequences that agree on cells
    # -(k-1)..k, i.e. on bits -(k-1)w..(k+1)w-1, w bits per cell; the tails
    # of the two ternary sums then differ by at most 3**-((k-1)w) in x and
    # 3**-((k+1)w) in y.
    rng = random.Random(5)
    for machine in (utm, wutm):
        w = (len(sequence_alphabet(machine)) - 1).bit_length()
        for _ in range(300):
            state = rng.choice(machine.states)
            k = rng.randint(1, 6)
            cells = {i: rng.choice(machine.alphabet) for i in range(-8, 9)}
            other = {i: s if abs(i) < k else rng.choice(machine.alphabet) for i, s in cells.items()}
            i = rng.choice((-k, k))
            other[i] = rng.choice([s for s in machine.alphabet if s != cells[i]])
            x, y = (make_config(machine, state, list(c.values()), -8) for c in (cells, other))
            assert distance(x, y) == Fraction(1, 2**k)
            px, py = cantor_point_of_config(machine, x), cantor_point_of_config(machine, y)
            assert abs(px.x - py.x) <= Fraction(1, 3 ** ((k - 1) * w))
            assert abs(px.y - py.y) <= Fraction(1, 3 ** ((k + 1) * w))
        # Every configuration with tape support in [-1, 1], each state included.
        points = {
            cantor_point_of_config(machine, make_config(machine, q, window, -1))
            for q in machine.states
            for window in itertools.product(machine.alphabet, repeat=3)
        }
        assert len(points) == len(machine.states) * len(machine.alphabet) ** 3


# --- dumps ------------------------------------------------------------------------


def test_gshift_json_dump(utm):
    doc = gshift_to_json_dict(compile_gshift(utm))
    assert doc["radius"] == 1
    assert doc["default_rule"] == {"replacement": "identity", "shift": 0}
    assert all(len(rule["window"]) == 3 for rule in doc["rules"])
    # deterministic ordering
    assert doc == gshift_to_json_dict(compile_gshift(utm))


def test_asequence_canonicalization(utm):
    alphabet = (utm.blank, utm.symbol_named("b"))
    seq = ASequence(alphabet, {0: utm.blank, 1: utm.symbol_named("b")})
    assert seq.cells == {1: utm.symbol_named("b")}
    with pytest.raises(ValueError):
        ASequence(alphabet, {0: "zzz"})
    with pytest.raises(ValueError, match="must not be empty"):
        ASequence((), {})
    # Fields, repr and keyword construction are the dataclass's.
    plain = ASequence(alphabet=("_", "a"), cells={0: "_", 2: "a"})
    assert repr(plain) == "ASequence(alphabet=('_', 'a'), cells={2: 'a'})"
    assert [f.name for f in dataclasses.fields(plain)] == ["alphabet", "cells"]
    assert dataclasses.replace(plain, cells={1: "a", 3: "_"}) == ASequence(("_", "a"), {1: "a"})
