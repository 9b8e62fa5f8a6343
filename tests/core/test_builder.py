"""Tests for the imperative chain builder behind the legacy oracles."""

import pytest

from repro.core import CTMCError
from repro.core.builder import ChainBuilder


class TestBasics:
    def test_add_state_idempotent(self):
        b = ChainBuilder().add_state("a").add_state("a")
        assert b.states == ("a",)

    def test_add_states_order_preserved(self):
        b = ChainBuilder().add_states("c", "a", "b")
        assert b.states == ("c", "a", "b")

    def test_add_rate_registers_states(self):
        b = ChainBuilder().add_rate("x", "y", 1.0)
        assert b.has_state("x") and b.has_state("y")

    def test_rates_accumulate(self):
        b = ChainBuilder()
        b.add_rate("a", "b", 1.0)
        b.add_rate("a", "b", 2.0)
        assert b.rate("a", "b") == pytest.approx(3.0)
        assert b.num_transitions == 1

    def test_zero_rate_dropped(self):
        b = ChainBuilder().add_rate("a", "b", 0.0)
        assert b.num_transitions == 0
        assert b.has_state("a") and b.has_state("b")

    def test_negative_rate_rejected(self):
        with pytest.raises(CTMCError):
            ChainBuilder().add_rate("a", "b", -0.1)

    def test_self_loop_rejected(self):
        with pytest.raises(CTMCError):
            ChainBuilder().add_rate("a", "a", 1.0)

    def test_build_produces_working_chain(self):
        b = ChainBuilder()
        b.add_rate("up", "down", 2.0)
        b.add_rate("down", "up", 10.0)
        b.add_rate("down", "dead", 1.0)
        chain = b.build(initial_state="up")
        assert chain.initial_state == "up"
        assert chain.mean_time_to_absorption() > 0

    def test_build_default_initial_is_first_state(self):
        b = ChainBuilder().add_rate("s0", "s1", 1.0)
        assert b.build().initial_state == "s0"

