"""Tests for the ProgressCounter synchronization primitive."""

import pytest

from repro.sim import Environment, ProgressCounter


class TestProgressCounter:
    def test_wait_already_satisfied(self):
        env = Environment()
        counter = ProgressCounter(env, value=5)
        seen = []

        def proc(env):
            value = yield counter.wait_until(3)
            seen.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert seen == [(0, 5)]

    def test_wait_blocks_until_threshold(self):
        env = Environment()
        counter = ProgressCounter(env)
        seen = []

        def waiter(env):
            yield counter.wait_until(3)
            seen.append(env.now)

        def poster(env):
            for _ in range(3):
                yield env.timeout(10)
                counter.increment()

        env.process(waiter(env))
        env.process(poster(env))
        env.run()
        assert seen == [30]

    def test_increment_by_multiple(self):
        env = Environment()
        counter = ProgressCounter(env)
        seen = []

        def waiter(env):
            yield counter.wait_until(5)
            seen.append(env.now)

        def poster(env):
            yield env.timeout(7)
            counter.increment(by=5)

        env.process(waiter(env))
        env.process(poster(env))
        env.run()
        assert seen == [7]
        assert counter.value == 5

    def test_multiple_waiters_different_thresholds(self):
        env = Environment()
        counter = ProgressCounter(env)
        order = []

        def waiter(env, threshold):
            yield counter.wait_until(threshold)
            order.append(threshold)

        for threshold in (3, 1, 2):
            env.process(waiter(env, threshold))

        def poster(env):
            for _ in range(3):
                yield env.timeout(1)
                counter.increment()

        env.process(poster(env))
        env.run()
        assert sorted(order) == [1, 2, 3]
        assert order[-1] == 3   # the highest threshold wakes last

    def test_invalid_increment(self):
        env = Environment()
        counter = ProgressCounter(env)
        with pytest.raises(ValueError):
            counter.increment(by=0)

