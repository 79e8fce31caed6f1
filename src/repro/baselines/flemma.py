"""Adapted F-LEMMA baseline (Zou et al., MLCAD 2020; paper §V-B).

F-LEMMA is a hierarchical learning-based power-management framework: a
*fine-grained* linear classifier picks an action every control epoch,
while a *coarse-grained* actor-critic update refines the policy from
batched experience.  Following §V-B we adapt it to the common objective
and to microsecond programs:

* the reward linearly combines normalised instruction throughput and
  normalised power, with the throughput baseline reduced by the
  performance-loss preset so the agent is allowed to degrade
  performance by that much, and
* the actor-critic update cycle is shortened ("faster F-LEMMA") so the
  agent can in principle adapt within short-duration programs.

The structural weakness the paper demonstrates is inherent: the agent
learns *online* and needs a warm-up to estimate baselines and explore
the action space.  Over a ~300 µs program (a few dozen epochs) the
exploration cost dominates whatever the policy eventually learns.
"""

from __future__ import annotations

import numpy as np

from ..errors import PolicyError
from ..gpu.counters import CounterSet
from ..gpu.simulator import EpochRecord, GPUSimulator
from ..core.policy import BasePolicy

#: Actor step size of the coarse-grained update.
LEARNING_RATE = 0.15
#: Critic step size of the coarse-grained update.
CRITIC_RATE = 0.1
#: TD discount of the critic's target.
DISCOUNT = 0.9
#: Softmax temperature of the actor's level distribution.
TEMPERATURE = 1.0
#: Weight of the power term in the adapted reward (throughput gets
#: ``1 - POWER_WEIGHT``).
POWER_WEIGHT = 0.5
#: Control epochs between coarse-grained actor-critic updates.
UPDATE_PERIOD = 3
#: Epochs spent estimating baselines before the agent acts.
WARMUP_EPOCHS = 4


def _state_vector(counters: CounterSet) -> np.ndarray:
    """Compact normalised state the linear actor/critic operate on."""
    slots = max(1.0, counters["issue_slots"])
    return np.array([
        counters["ipc"] / 4.0,
        counters["stall_mem_hazard"] / slots,
        counters["power_per_core"] / 10.0,
        counters["occupancy"],
        counters["l1_read_miss_rate"],
        1.0,  # bias term
    ])


class FLEMMAPolicy(BasePolicy):
    """Hierarchical actor-critic RL controller (adapted)."""

    def __init__(self, preset: float, seed: int = 0) -> None:
        super().__init__()
        if preset < 0:
            raise PolicyError("preset cannot be negative")
        self.preset = float(preset)
        self.seed = seed
        self.name = f"flemma-p{int(round(preset * 100))}"
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def reset(self, simulator: GPUSimulator) -> None:
        """Re-initialise the agent (models, baselines, exploration)."""
        super().reset(simulator)
        num_levels = simulator.arch.vf_table.num_levels
        state_width = _state_vector(CounterSet()).shape[0]
        self._rng = np.random.default_rng(self.seed)
        # Linear actor (softmax over levels) and linear critic.
        self._actor = np.zeros((num_levels, state_width))
        # Bias the initial policy toward the default level so the agent
        # starts from the safe operating point, as F-LEMMA does.
        self._actor[num_levels - 1, -1] = 1.0
        self._critic = np.zeros(state_width)
        self._epoch = 0
        self._baseline_instructions: float | None = None
        self._baseline_power: float | None = None
        self._warmup_inst: list[float] = []
        self._warmup_power: list[float] = []
        self._transitions: list[tuple[np.ndarray, int, float]] = []
        self._last_state: np.ndarray | None = None
        self._last_action: int | None = None
        simulator.set_all_levels(simulator.arch.vf_table.default_level)

    # ------------------------------------------------------------------
    def _policy_distribution(self, state: np.ndarray) -> np.ndarray:
        logits = self._actor @ state / TEMPERATURE
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def _reward(self, record: EpochRecord) -> float:
        """Adapted reward: throughput vs reduced baseline, minus power."""
        instructions = record.instructions / len(record.cluster_counters)
        power = record.counters["power_per_core"]
        inst_base = self._baseline_instructions * (1.0 - self.preset)
        throughput_term = min(1.5, instructions / max(1e-9, inst_base))
        power_term = power / max(1e-9, self._baseline_power)
        return (1.0 - POWER_WEIGHT) * throughput_term \
            - POWER_WEIGHT * power_term

    def _update_models(self) -> None:
        """Coarse-grained actor-critic update over the stored batch."""
        if len(self._transitions) < 2:
            return
        for index in range(len(self._transitions) - 1):
            state, action, reward = self._transitions[index]
            next_state = self._transitions[index + 1][0]
            td_target = reward + DISCOUNT * float(self._critic @ next_state)
            advantage = td_target - float(self._critic @ state)
            self._critic += CRITIC_RATE * advantage * state
            probs = self._policy_distribution(state)
            grad = -np.outer(probs, state)
            grad[action] += state
            self._actor += LEARNING_RATE * advantage * grad
        self._transitions = self._transitions[-1:]

    # ------------------------------------------------------------------
    def decide(self, record: EpochRecord) -> int:
        """Warm up, learn from the last reward, sample the next level."""
        if self.simulator is None:
            raise PolicyError("policy not bound to a simulator")
        self._epoch += 1
        default_level = self.simulator.arch.vf_table.default_level
        state = _state_vector(record.counters)

        # Warm-up at the default point: estimate the reward baselines.
        if self._epoch <= WARMUP_EPOCHS:
            self._warmup_inst.append(
                record.instructions / len(record.cluster_counters))
            self._warmup_power.append(record.counters["power_per_core"])
            if self._epoch == WARMUP_EPOCHS:
                self._baseline_instructions = float(np.mean(self._warmup_inst))
                self._baseline_power = float(np.mean(self._warmup_power))
            return default_level

        # Record the reward of the last action and store the transition.
        if self._last_state is not None and self._last_action is not None:
            reward = self._reward(record)
            self._transitions.append(
                (self._last_state, self._last_action, reward))
        if self._epoch % UPDATE_PERIOD == 0:
            self._update_models()

        probs = self._policy_distribution(state)
        action = int(self._rng.choice(len(probs), p=probs))
        self._last_state = state
        self._last_action = action
        return action
