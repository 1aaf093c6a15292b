"""State-action value priors: the closed-form uniform-target heuristic and a
trainable MLP regressed onto search values.

A prior maps a prefix of length n to the K default values for the next
variable. evaluate takes one prefix and returns a fresh list of K Python
floats, the form a search node stores: the node keeps that list as its
child values and mutates it, so an expansion builds no array or copy;
evaluate_batch takes many prefixes and returns an (R, K) float64 array, one
row per prefix, each row equal to evaluate of that prefix; callers only read
it, and HeuristicPrior returns a read-only broadcast view. Priors are free
to evaluate: they never touch the budget.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import FactorGraph, Prefix, REWARD_EVAL, check_type
from .search import build_tree, check_search_params

CHECKPOINT_FORMAT = "treesample-mlp-v1"


class HeuristicPrior:
    """Values of the all-factors-vanish target: (N - n - 1) * log K after an
    n-prefix, i.e. the log-volume of the remaining configurations."""

    def evaluate(self, graph: FactorGraph, prefix) -> list[float]:
        steps_left = graph.num_variables - len(prefix) - 1
        if steps_left < 0:
            raise ValueError("prefix already complete")
        return [steps_left * math.log(graph.num_states)] * graph.num_states

    def evaluate_batch(self, graph: FactorGraph, prefixes) -> np.ndarray:
        """evaluate() of every prefix, one call per distinct prefix length.

        prefixes is an (R, d) int array of equal-length prefixes, as the
        samplers pass it, or a sequence of tuples of any lengths. For a
        non-empty array, the result is np.broadcast_to of the one evaluate
        row: a read-only (R, K) view with row stride 0, which
        logmath.draw_softmax_rows reduces once as a shared row.
        """
        if isinstance(prefixes, np.ndarray) and len(prefixes):
            row = np.array(self.evaluate(graph, prefixes[0]))
            return np.broadcast_to(row, (len(prefixes), graph.num_states))
        lengths = _prefix_lengths(prefixes)
        out = np.empty((len(lengths), graph.num_states))
        for n in np.flatnonzero(np.bincount(lengths)):
            rows = lengths == n
            out[rows] = self.evaluate(graph, prefixes[int(np.argmax(rows))])
        return out


def _prefix_lengths(prefixes) -> np.ndarray:
    """Lengths of a sequence of prefixes, or of the rows of an (R, d) array."""
    if isinstance(prefixes, np.ndarray):
        return np.full(len(prefixes), prefixes.shape[1], dtype=np.int64)
    return np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes))


@functools.lru_cache(maxsize=16)
def _encoding_slots(graph: FactorGraph) -> tuple[list[int], list[int]]:
    """encode_batch's slot lists for one graph, built once per graph (a
    graph hashes by identity): base[d] and the unassigned flag's slot
    base[d] + K + 1 of the variable at every depth d. Every call for the
    graph gets the same two lists, so callers only read them."""
    k = graph.num_states
    base = [(v - 1) * (k + 1) - 1 for v in graph.ordering]
    return base, [b + k + 1 for b in base]


def encode_batch(graph: FactorGraph, prefixes) -> np.ndarray:
    """Fixed-width encoding of every prefix as one row: per variable, K one-hot
    slots plus an unassigned flag in slot K+1. Injective over prefixes.

    prefixes is a sequence of tuples or an (R, d) int array of equal-length
    prefixes. Value x at depth d, with x = K+1 for an unassigned variable,
    sets slot base[d] + x, where base[d] = (v - 1)(K + 1) - 1 for the
    variable v assigned at depth d; the slot lists come from
    _encoding_slots, once per graph. Tuples are encoded row by row with one
    ndarray.put each, which on a single prefix (MLPValueFunction.evaluate,
    once per tree expansion) costs less than building an (R, N) value array
    or a fancy assignment.
    """
    n, k = graph.num_variables, graph.num_states
    base, unassigned = _encoding_slots(graph)
    out = np.zeros((len(prefixes), n * (k + 1)))
    if isinstance(prefixes, np.ndarray):
        values = np.full((len(prefixes), n), k + 1, dtype=np.int64)
        values[:, : prefixes.shape[1]] = prefixes
        np.put_along_axis(out, np.array(base) + values, 1.0, axis=1)
        return out
    for i, prefix in enumerate(prefixes):
        out[i].put([b + x for b, x in zip(base, prefix)] + unassigned[len(prefix):], 1.0)
    return out


class MLPValueFunction:
    """Plain fully connected ReLU network in float64 numpy.

    Architecture: input -> [hidden x num_hidden_layers] -> K linear outputs.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden_units: int = 256,
        num_hidden_layers: int = 4,
        seed: int = 0,
    ):
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.hidden_units = hidden_units
        self.num_hidden_layers = num_hidden_layers
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in self._layer_dims():
            scale = math.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(scale=scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @classmethod
    def from_flat(cls, flat: np.ndarray, input_dim: int, output_dim: int, hidden_units: int,
                  num_hidden_layers: int) -> "MLPValueFunction":
        """The network whose get_flat() equals flat, built without drawing
        the random initial weights that set_flat would overwrite."""
        mlp = cls.__new__(cls)
        mlp.input_dim = input_dim
        mlp.output_dim = output_dim
        mlp.hidden_units = hidden_units
        mlp.num_hidden_layers = num_hidden_layers
        layers = mlp._layer_dims()
        mlp.weights = [np.empty((fan_in, fan_out)) for fan_in, fan_out in layers]
        mlp.biases = [np.empty(fan_out) for _, fan_out in layers]
        mlp.set_flat(flat)
        return mlp

    def _layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every layer, input first."""
        dims = [self.input_dim] + [self.hidden_units] * self.num_hidden_layers + [self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    # -- parameter plumbing ------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for p in self.parameters():
            p[...] = flat[i : i + p.size].reshape(p.shape)
            i += p.size
        if i != flat.size:
            raise ValueError("flat parameter vector has the wrong length")

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(B, input_dim) -> (B, output_dim)."""
        out = self._forward(x)
        if np.any(np.isnan(out)):
            raise ValueError("MLP produced NaN outputs")
        return out

    def _forward(self, x: np.ndarray, acts: list | None = None) -> np.ndarray:
        """Outputs of the network; the one layer loop of inference and
        training. When acts is a list, the input of every layer is appended
        to it, which the backward pass reads. Each layer's product is a
        fresh array, so the bias and the ReLU are applied to it in place."""
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            if acts is not None:
                acts.append(h)
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out

    def loss_and_gradients(self, x: np.ndarray, targets: np.ndarray):
        """Mean squared-L2 regression loss and its parameter gradients."""
        acts = []
        out = self._forward(x, acts)
        batch = x.shape[0]
        diff = out - targets
        loss = float(np.sum(diff * diff) / batch)
        grad_ws = [np.empty_like(w) for w in self.weights]
        grad_bs = [np.empty_like(b) for b in self.biases]
        delta = 2.0 * diff / batch
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_ws[layer] = acts[layer].T @ delta
            grad_bs[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (acts[layer] > 0.0)
        grads = []
        for gw, gb in zip(grad_ws, grad_bs):
            grads.extend((gw, gb))
        return loss, grads

    # -- prior interface ---------------------------------------------------

    def evaluate(self, graph: FactorGraph, prefix) -> list[float]:
        """forward() of one prefix, with the NaN check on its K floats."""
        values = self._forward(encode_batch(graph, [prefix]))[0].tolist()
        if any(map(math.isnan, values)):
            raise ValueError("MLP produced NaN outputs")
        return values

    def evaluate_batch(self, graph: FactorGraph, prefixes) -> np.ndarray:
        """evaluate() of every prefix, in either form encode_batch takes,
        equal to it bit for bit: each row is its own (1, D) product (a
        stacked matmul), where one (R, D) product would round differently
        from the single-row path."""
        return self.forward(encode_batch(graph, prefixes)[:, None, :])[:, 0, :]


class Adam:
    """Adam with standard moment defaults; state aligned with a parameter list."""

    def __init__(self, params: list[np.ndarray], learning_rate: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class ReplayBuffer:
    """FIFO ring of (encoded prefix, target vector) pairs, uniform sampling."""

    def __init__(self, capacity: int, input_dim: int, output_dim: int):
        self.capacity = capacity
        self.inputs = np.zeros((capacity, input_dim))
        self.targets = np.zeros((capacity, output_dim))
        self.size = 0
        self._next = 0

    def __len__(self) -> int:
        return self.size

    def add(self, encoded: np.ndarray, target: np.ndarray) -> None:
        self.inputs[self._next] = encoded
        self.targets[self._next] = target
        self._next = (self._next + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample_batch(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, self.size, size=batch_size)
        return self.inputs[idx], self.targets[idx]


def train_step(
    mlp: MLPValueFunction,
    replay: ReplayBuffer,
    batch_size: int,
    adam: Adam,
    rng: np.random.Generator,
    clamp_floor: float = -50.0,
) -> float:
    """One uniform minibatch, one Adam update; returns the pre-update loss.

    Zero-mass (-inf) targets are clamped to the floor so the squared loss
    stays defined while the action ranking is preserved. An overflow means
    the optimizer diverged, which raises ValueError.
    """
    if len(replay) < batch_size:
        raise ValueError("replay buffer smaller than the batch size")
    x, y = replay.sample_batch(batch_size, rng)
    y = np.maximum(y, clamp_floor)
    try:
        with np.errstate(over="raise", invalid="raise"):
            loss, grads = mlp.loss_and_gradients(x, y)
            adam.step(mlp.parameters(), grads)
    except FloatingPointError as exc:
        raise ValueError(f"training diverged ({exc}); lower the learning rate") from None
    return loss


def check_field_types(config) -> None:
    """check_type of each field of a dataclass against its annotation."""
    for f in fields(config):
        check_type(f.name, getattr(config, f.name), f.type)


@dataclass
class TrainConfig:
    episodes: int = 4000
    budget_per_episode: int = 2500
    samples_per_episode: int = 128
    batch_size: int = 128
    learning_rate: float = 3e-4
    seed: int = 0
    replay_capacity: int = 10_000
    clamp_floor: float = -50.0
    c: float = 2.0
    epsilon: float = 0.1
    smc_threshold: float = 0.5
    cost_mode: str = REWARD_EVAL
    metric_samples: int = 128

    def __post_init__(self):
        check_field_types(self)
        for name in ("episodes", "budget_per_episode", "samples_per_episode",
                     "batch_size", "learning_rate", "replay_capacity", "metric_samples"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails this too
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.clamp_floor):
            raise ValueError("clamp_floor must be finite")
        check_search_params(self.c, self.epsilon)


def _smc_step_targets(atoms, weights, num_particles: int, k: int):
    """Smoothed log empirical conditionals at every prefix hit by an atom."""
    masses: dict[Prefix, np.ndarray] = {}
    for x, w in zip(atoms, weights):
        for n in range(len(x)):
            vec = masses.get(x[:n])
            if vec is None:
                vec = np.zeros(k)
                masses[x[:n]] = vec
            vec[x[n] - 1] += w
    smooth = 1.0 / (k * num_particles)
    targets = {}
    for prefix, vec in masses.items():
        p = vec + smooth
        targets[prefix] = np.log(p / p.sum())
    return targets


def train_loop(graph: FactorGraph, algo: str, config: TrainConfig, mlp: MLPValueFunction,
               adam: Adam | None = None, start_episode: int = 0, progress=None):
    """Alternating data generation and optimizer passes on one fixed graph.

    Per episode: build an approximation with the current value function as
    prior/proposal, draw samples, write per-step value targets to replay,
    then run one optimizer step per sample drawn. Returns the trained network
    and one metrics row per episode.
    """
    from .baselines import DegenerateSampleError, smc
    from .metrics import delta_kl_atoms, delta_kl_sampler, sampler_estimate

    if algo not in ("treesample", "smc"):
        raise ValueError("algo must be 'treesample' or 'smc'")
    n, k = graph.num_variables, graph.num_states
    input_dim = n * (k + 1)
    if adam is None:
        adam = Adam(mlp.parameters(), learning_rate=config.learning_rate)
    replay = ReplayBuffer(config.replay_capacity, input_dim, k)
    master = np.random.default_rng(config.seed)
    history: list[dict] = []
    # burn replay/rng state forward so a resumed run keeps drawing fresh seeds
    for _ in range(start_episode):
        master.integers(0, 2**63 - 1, size=3)

    for episode in range(start_episode, config.episodes):
        seeds = master.integers(0, 2**63 - 1, size=3)
        build_seed, draw_seed, learn_seed = (int(s) for s in seeds)
        draw_rng = np.random.default_rng(draw_seed)
        degenerate = False
        delta_kl = math.nan
        pairs: list[tuple[Prefix, np.ndarray]] = []

        if algo == "treesample":
            tree = build_tree(graph, mlp, config.budget_per_episode, c=config.c,
                              epsilon=config.epsilon, cost_mode=config.cost_mode)
            xs, log_q = tree.sample_batch(config.samples_per_episode, draw_rng)
            delta_kl = sampler_estimate(log_q, graph.log_unnormalized_density_batch(xs)).delta_kl
            for x in map(tuple, xs.tolist()):
                for d in range(n):
                    node = tree.nodes.get(x[:d])
                    if node is not None:
                        pairs.append((x[:d], node.q.copy()))
        else:
            try:
                result = smc(graph, mlp, config.budget_per_episode,
                             resample_threshold=config.smc_threshold,
                             seed=build_seed, cost_mode=config.cost_mode)
            except DegenerateSampleError:
                degenerate = True
            else:
                delta_kl = delta_kl_atoms(result, graph)
                targets = _smc_step_targets(result.atoms, result.weights, result.num_particles, k)
                w = np.asarray(result.weights)
                for _ in range(config.samples_per_episode):
                    i = int(draw_rng.choice(len(result.atoms), p=w))
                    x = result.atoms[i]
                    for d in range(n):
                        t = targets.get(x[:d])
                        if t is not None:
                            pairs.append((x[:d], t))

        encoded = encode_batch(graph, [prefix for prefix, _ in pairs])
        for x, (_, target) in zip(encoded, pairs):
            replay.add(x, target)

        learn_rng = np.random.default_rng(learn_seed)
        losses = []
        if len(replay) >= config.batch_size:
            for _ in range(config.samples_per_episode):
                losses.append(train_step(mlp, replay, config.batch_size, adam,
                                         learn_rng, config.clamp_floor))

        prior_only = build_tree(graph, mlp, budget=0)  # an empty tree samples the prior
        delta_kl_prior = delta_kl_sampler(prior_only, graph, config.metric_samples,
                                          seed=draw_seed + 1).delta_kl
        row = {
            "episode": episode,
            "delta_kl": delta_kl,
            "delta_kl_prior": delta_kl_prior,
            "mean_loss": float(np.mean(losses)) if losses else math.nan,
            "train_steps": len(losses),
            "replay_size": len(replay),
            "degenerate": degenerate,
        }
        history.append(row)
        if progress is not None:
            progress(row)
    return mlp, history


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then raw little-endian float64 blocks
# (parameters, Adam first moments, Adam second moments). Loads bit-exactly.
# ---------------------------------------------------------------------------


def save_checkpoint(path, mlp: MLPValueFunction, adam: Adam, episode: int,
                    config: TrainConfig) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "input_dim": mlp.input_dim,
        "output_dim": mlp.output_dim,
        "hidden_units": mlp.hidden_units,
        "num_hidden_layers": mlp.num_hidden_layers,
        "num_parameters": mlp.num_parameters(),
        "adam_step": adam.step_count,
        "episode": episode,
        "config": asdict(config),
    }
    flat = mlp.get_flat()
    m = np.concatenate([a.ravel() for a in adam.m])
    v = np.concatenate([a.ravel() for a in adam.v])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(flat.astype("<f8").tobytes())
        fh.write(m.astype("<f8").tobytes())
        fh.write(v.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (mlp, adam, episode, config) rebuilt bit-exactly."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("unrecognized checkpoint format")
        keys = ("input_dim", "output_dim", "hidden_units", "num_hidden_layers", "adam_step",
                "episode")
        try:
            config = TrainConfig(**header["config"])
            d_in, d_out, h, layers, adam_step, episode = sizes = [header[key] for key in keys]
        except (KeyError, TypeError) as exc:  # a missing entry or a bad training config
            raise ValueError(f"malformed checkpoint header in {path}: {exc!r}") from None
        if not all(isinstance(v, int) and v >= 0 for v in sizes) or 0 in sizes[:4]:
            raise ValueError(f"checkpoint {keys} must be integers, the first four positive")
        # the MLP's weights and biases, counted before anything is allocated
        count = (d_in + 1) * h + (layers - 1) * (h + 1) * h + (h + 1) * d_out
        expected = 3 * count * 8
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValueError(f"checkpoint block size {size} != expected {expected}")
        flat = np.fromfile(fh, dtype="<f8", count=count)
        moments = np.fromfile(fh, dtype="<f8", count=2 * count)
    mlp = MLPValueFunction.from_flat(flat, d_in, d_out, hidden_units=h, num_hidden_layers=layers)
    # Adam's moments are views of the file's two moment blocks, not zeros
    # overwritten from them
    adam = Adam([], learning_rate=config.learning_rate)
    adam.step_count = adam_step
    i = 0
    for p in mlp.parameters():
        adam.m.append(moments[i : i + p.size].reshape(p.shape))
        adam.v.append(moments[count + i : count + i + p.size].reshape(p.shape))
        i += p.size
    return mlp, adam, episode, config
