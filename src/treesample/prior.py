"""State-action value priors: the closed-form uniform-target heuristic and a
trainable MLP regressed onto search values.

A prior maps a prefix of length n to the K default values for the next
variable. evaluate takes one prefix and returns a fresh list of K Python
floats, the form a search node stores: the node keeps that list as its
child values and mutates it, so an expansion builds no array or copy;
evaluate_batch takes many prefixes and returns an (R, K) float64 array, one
row per prefix; callers only read it, and HeuristicPrior returns a
read-only broadcast view. A heuristic row equals evaluate of its prefix bit
for bit. An MLP batch is one matrix product per layer, whose rows equal
evaluate to about 1e-12 relative; the MLP's evaluate is its one-prefix
batch, so one product path and one NaN check serve both.
Every prior declares leaf_batch, how many leaves a search round collects
before it calls the prior once for all of them (build_tree). Priors are free to evaluate: they
never touch the budget.

A prior's outputs are soft values, the log of the summed future mass below
each child, on the scale backup writes; train fits them with either algo,
and SIS and SMC draw from their softmax. TrainConfig records the algo; the
replay capacity, the target floor and Adam's moment rates are constants.

The MLP's trainable state is three float64 vectors in one layout (see
MLPValueFunction): its parameters, flat, and Adam's two moments. The
gradient shares the layout, and a checkpoint stores the three vectors.
MLPValueFunction has one constructor: it draws He-initialised weights from
a seed, or wraps a given flat vector, which is how load_checkpoint builds
the network without drawing or allocating.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import DegenerateSampleError, WeightedAtoms, check_resample_threshold, smc
from .metrics import delta_kl_atoms, delta_kl_sampler, sampler_estimate
from .model import FactorGraph, Prefix, check_fields, config_field, parse_json
from .search import build_tree, check_search_params

CHECKPOINT_FORMAT = "treesample-mlp-v3"
ALGOS = ("treesample", "smc")
REPLAY_CAPACITY = 10_000
CLAMP_FLOOR = -50.0  # what train_step clamps a -inf (zero-mass) target to


class HeuristicPrior:
    """Values of the all-factors-vanish target: (N - n - 1) * log K after an
    n-prefix, i.e. the log-volume of the remaining configurations."""

    # the search's leaves per round (build_tree): a heuristic row is a
    # formula of the depth, so a batch of rows shares no work, and under
    # this flat prior rounds of 8 gave a higher KL than one-leaf rounds
    # (fg1 n18 at budget 2,500: 0.897 against 0.817, exact), so the
    # heuristic builds one leaf per round
    leaf_batch = 1

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
        logmath.draw_softmax_rows takes as a shared row: its one row goes
        through shifted_exp_terms once.
        """
        if isinstance(prefixes, np.ndarray) and len(prefixes):
            row = np.array(self.evaluate(graph, prefixes[0]))
            return np.broadcast_to(row, (len(prefixes), graph.num_states))
        rows: dict[int, list[float]] = {}
        for prefix in prefixes:
            if len(prefix) not in rows:
                rows[len(prefix)] = self.evaluate(graph, prefix)
        return np.array([rows[len(p)] for p in prefixes]).reshape(-1, graph.num_states)


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


def _flat_size(input_dim: int, output_dim: int, hidden_units: int, num_hidden_layers: int) -> int:
    """Length of MLPValueFunction.flat in closed form, to size untrusted headers."""
    h = hidden_units
    return (input_dim + 1) * h + (num_hidden_layers - 1) * (h + 1) * h + (h + 1) * output_dim


class MLPValueFunction:
    """Plain fully connected ReLU network in float64 numpy.

    Architecture: input -> [hidden x num_hidden_layers] -> K linear outputs.
    Every parameter lives in one float64 vector, flat, in the checkpoint's
    layout: layer by layer from the input, each layer's (fan_in, fan_out)
    weight matrix row-major, then its fan_out biases, i.e. one row-major
    (fan_in + 1, fan_out) block whose last row is the biases. weights and
    biases are views of flat, so parameters() is [flat] and an in-place
    update of flat (Adam.step) updates the layers.
    """

    # the search's leaves per round (build_tree), whose prior rows come from
    # one evaluate_batch product. On 2 vCPUs with one OpenBLAS thread the
    # 4 x 256 network at input 54 (fg2 n18) costs about 42, 25, 15, 11.5, 12
    # and 9 us per row at 1, 2, 4, 8, 16 and 32 rows, and its build at budget
    # 1,000 takes 36.1 ms one leaf at a time, 22.9 at 8 and 18.9 at 32. The
    # width trades KL under a good prior for speed: with a Q*-distilled 2 x 32
    # network at budget 300, exact KL at 1 -> 8 leaves went 0.00014 -> 0.00041
    # on fg1 n8, 0.00027 -> 0.00043 on fg2 n8 and 0.0020 -> 0.0036 on chains
    # n6 k3; only the untrained network gains KL from rounds
    leaf_batch = 8

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden_units: int = 256,
        num_hidden_layers: int = 4,
        seed: int = 0,
        flat: np.ndarray | None = None,
    ):
        """He-initialised weights drawn from seed, and zero biases. Given
        flat, the network's parameter vector is flat itself, not a copy, and
        nothing is drawn or allocated; a flat of the wrong length raises
        ValueError."""
        if hidden_units < 1 or num_hidden_layers < 1:
            raise ValueError("an MLP needs hidden_units >= 1 and num_hidden_layers >= 1")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.hidden_units = hidden_units
        self.num_hidden_layers = num_hidden_layers
        self.flat = flat if flat is not None else np.zeros(
            _flat_size(input_dim, output_dim, hidden_units, num_hidden_layers))
        self.weights, self.biases = self._views(self.flat)
        if flat is None:
            rng = np.random.default_rng(seed)
            for w in self.weights:
                w[...] = rng.normal(scale=math.sqrt(2.0 / w.shape[0]), size=w.shape)

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views of a vector in flat's layout;
        raises ValueError, before slicing, if its length does not fit the layout."""
        if flat.size != _flat_size(self.input_dim, self.output_dim, self.hidden_units,
                                   self.num_hidden_layers):
            raise ValueError("flat parameter vector has the wrong length")
        dims = [self.input_dim] + [self.hidden_units] * self.num_hidden_layers + [self.output_dim]
        weights, biases = [], []
        i = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            block = flat[i : i + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)
            weights.append(block[:-1])
            biases.append(block[-1])
            i += block.size
        return weights, biases

    def parameters(self) -> list[np.ndarray]:
        return [self.flat]

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
        """Mean squared-L2 regression loss and [its gradient], one vector in
        flat's layout whose per-layer views the backward pass fills."""
        acts = []
        out = self._forward(x, acts)
        batch = x.shape[0]
        diff = out - targets
        loss = float(np.sum(diff * diff) / batch)
        grad = np.empty_like(self.flat)
        grad_ws, grad_bs = self._views(grad)
        delta = 2.0 * diff / batch
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=grad_ws[layer])
            delta.sum(axis=0, out=grad_bs[layer])
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (acts[layer] > 0.0)
        return loss, [grad]

    # -- prior interface ---------------------------------------------------

    def evaluate(self, graph: FactorGraph, prefix) -> list[float]:
        """The one row of evaluate_batch of [prefix], as K Python floats."""
        return self.evaluate_batch(graph, [prefix])[0].tolist()

    def evaluate_batch(self, graph: FactorGraph, prefixes) -> np.ndarray:
        """forward() of every prefix, in either form encode_batch takes, as
        one (R, D) product per layer: bit for bit forward(encode_batch(...)).

        evaluate() is the one-prefix batch, so forward()'s NaN check serves
        both. In a larger batch each row equals evaluate() to about 1e-12
        relative but not always in the last bits: the BLAS may round a row
        differently by its place in the batch (OpenBLAS runs the rows of a
        trailing partial tile through another kernel), so a row's bits
        depend on the batch it came in, not on the BLAS thread count.
        """
        return self.forward(encode_batch(graph, prefixes))


class Adam:
    """Adam with the standard moment rates; state aligned with a parameter
    list, which for an MLPValueFunction is [flat]."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], learning_rate: float = 3e-4):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.BETA1**self.step_count
        b2c = 1.0 - self.BETA2**self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p -= self.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


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


def train_step(mlp: MLPValueFunction, replay: ReplayBuffer, batch_size: int, adam: Adam,
               rng: np.random.Generator) -> float:
    """One uniform minibatch, one Adam update; returns the pre-update loss.

    Zero-mass (-inf) targets are clamped to CLAMP_FLOOR so the squared loss
    stays defined while the action ranking is preserved. An overflow means
    the optimizer diverged, which raises ValueError.
    """
    if len(replay) < batch_size:
        raise ValueError("replay buffer smaller than the batch size")
    x, y = replay.sample_batch(batch_size, rng)
    y = np.maximum(y, CLAMP_FLOOR)
    try:
        with np.errstate(over="raise", invalid="raise"):
            loss, grads = mlp.loss_and_gradients(x, y)
            adam.step(mlp.parameters(), grads)
    except FloatingPointError as exc:
        raise ValueError(f"training diverged ({exc}); lower the learning rate") from None
    return loss


@dataclass
class TrainConfig:
    """One train run on one graph; each field's help is also its flag's."""

    episodes: int = config_field(4000, "the training rounds")
    budget_per_episode: int = config_field(2500, "the budget of each episode's build")
    samples_per_episode: int = config_field(128, "replay draws, and Adam steps, per episode")
    batch_size: int = config_field(128, "the replay pairs of one Adam step")
    learning_rate: float = config_field(3e-4, "Adam's step size")
    seed: int = config_field(0, "the seed of the initial weights and of every episode")
    c: float = config_field(2.0, "as for run")
    epsilon: float = config_field(0.1, "as for run")
    resample_threshold: float = config_field(0.5, "as for run")
    metric_samples: int = config_field(128, "the draws that score each episode's delta_kl_prior")
    algo: str = config_field("treesample", "the sampler each episode builds", choices=ALGOS)

    def __post_init__(self):
        check_fields(self)
        for name in ("episodes", "budget_per_episode", "samples_per_episode",
                     "batch_size", "learning_rate", "metric_samples"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails this too
                raise ValueError(f"{name} must be positive and finite")
        if self.batch_size > REPLAY_CAPACITY:  # replay never holds a larger batch
            raise ValueError(f"batch_size must be at most the replay capacity, {REPLAY_CAPACITY}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        check_search_params(self.c, self.epsilon)
        check_resample_threshold(self.resample_threshold)


def _smc_value_targets(graph: FactorGraph, result: WeightedAtoms, smooth: float) -> dict:
    """Soft-value targets Q(x<n, a) = log(P(x<n.a) + smooth) + log Z - R(x<n)
    at every prefix hit by an atom of result: P is the atoms' mass, Z their
    log_z_estimate, R the prefix's summed reward. With the exact mass and Z
    and smooth 0 this is the optimal value Q*."""
    xs, n, k = np.array(result.atoms), graph.num_variables, graph.num_states
    steps = [np.zeros(len(xs))] + [graph.reward_batch(xs[:, :d]) for d in range(1, n)]
    offsets = result.log_z_estimate - np.cumsum(steps, axis=0).T  # log Z - R(x<d) at [i, d]
    masses: dict[Prefix, tuple[np.ndarray, float]] = {}
    for x, w, offset in zip(result.atoms, result.weights, offsets.tolist()):
        for d in range(n):
            vec = masses.setdefault(x[:d], (np.zeros(k), offset[d]))[0]
            vec[x[d] - 1] += w
    return {prefix: np.log(vec + smooth) + offset for prefix, (vec, offset) in masses.items()}


def train_loop(graph: FactorGraph, config: TrainConfig, mlp: MLPValueFunction, adam: Adam,
               start_episode: int = 0, progress=None):
    """Alternating data generation and optimizer passes on one fixed graph.

    Per episode: build an approximation (config.algo) with the current
    value function as prior/proposal, draw samples, write per-step value
    targets to replay, then run one optimizer step per sample drawn. Returns
    the trained network and one metrics row per episode.
    """
    n, k = graph.num_variables, graph.num_states
    replay = ReplayBuffer(REPLAY_CAPACITY, n * (k + 1), k)
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
        targets: dict = {}  # prefix -> value target, for the prefixes that have one
        draws: list[Prefix] = []  # configurations whose prefixes go to replay

        if config.algo == "treesample":
            tree = build_tree(graph, mlp, config.budget_per_episode, c=config.c,
                              epsilon=config.epsilon)
            xs, log_q = tree.sample_batch(config.samples_per_episode, draw_rng)
            delta_kl = sampler_estimate(log_q, graph.log_unnormalized_density_batch(xs)).delta_kl
            # the finished tree no longer changes, and replay copies each target
            targets = {prefix: node.q for prefix, node in tree.nodes.items()}
            draws = list(map(tuple, xs.tolist()))
        else:
            try:
                result = smc(graph, mlp, config.budget_per_episode,
                             resample_threshold=config.resample_threshold, seed=build_seed)
            except DegenerateSampleError:
                degenerate = True
            else:
                delta_kl = delta_kl_atoms(result, graph)
                targets = _smc_value_targets(graph, result, 1.0 / (k * result.num_particles))
                picks = draw_rng.choice(len(result.atoms), size=config.samples_per_episode,
                                        p=np.asarray(result.weights))
                draws = [result.atoms[i] for i in picks.tolist()]

        pairs = []
        for x in draws:  # draw by draw, then depth by depth
            for d in range(n):
                target = targets.get(x[:d])
                if target is not None:
                    pairs.append((x[:d], target))
        encoded = encode_batch(graph, [prefix for prefix, _ in pairs])
        for x, (_, target) in zip(encoded, pairs):
            replay.add(x, target)

        learn_rng = np.random.default_rng(learn_seed)
        losses = []
        if len(replay) >= config.batch_size:
            for _ in range(config.samples_per_episode):
                losses.append(train_step(mlp, replay, config.batch_size, adam, learn_rng))

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
# Checkpoints: one JSON header line, then three raw little-endian float64
# blocks in MLPValueFunction.flat's layout (parameters, Adam first moments,
# Adam second moments). Loads bit-exactly.
# The header stores the whole TrainConfig.
# ---------------------------------------------------------------------------


def save_checkpoint(path, mlp: MLPValueFunction, adam: Adam, episode: int,
                    config: TrainConfig) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "input_dim": mlp.input_dim,
        "output_dim": mlp.output_dim,
        "hidden_units": mlp.hidden_units,
        "num_hidden_layers": mlp.num_hidden_layers,
        "num_parameters": mlp.flat.size,
        "adam_step": adam.step_count,
        "episode": episode,
        "config": asdict(config),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for block in (mlp.flat, *adam.m, *adam.v):
            fh.write(block.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (mlp, adam, episode, config) rebuilt bit-exactly."""
    with open(path, "rb") as fh:
        header = parse_json(fh.readline().decode("utf-8"), f"checkpoint header of {path}")
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("unrecognized checkpoint format")
        keys = ("input_dim", "output_dim", "hidden_units", "num_hidden_layers", "adam_step",
                "episode")
        try:
            config = TrainConfig(**header["config"])
            d_in, d_out, h, layers, adam_step, episode = sizes = [header[key] for key in keys]
        except (KeyError, TypeError, ValueError) as exc:  # a missing entry or a bad config
            raise ValueError(f"malformed checkpoint header in {path}: {exc!r}") from None
        if not all(type(v) is int and v >= 0 for v in sizes) or 0 in sizes[:4]:
            raise ValueError(f"checkpoint {keys} must be integers, the first four positive")
        # the MLP's weights and biases, counted before anything is allocated
        count = _flat_size(d_in, d_out, h, layers)
        expected = 3 * count * 8
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValueError(f"checkpoint block size {size} != expected {expected}")
        # the network keeps only its own block alive, and dropping the
        # optimizer frees the moment blocks
        flat = np.fromfile(fh, dtype="<f8", count=count)
        m, v = np.fromfile(fh, dtype="<f8", count=2 * count).reshape(2, count)
    mlp = MLPValueFunction(d_in, d_out, hidden_units=h, num_hidden_layers=layers, flat=flat)
    adam = Adam([], learning_rate=config.learning_rate)
    adam.step_count = adam_step
    adam.m, adam.v = [m], [v]
    return mlp, adam, episode, config
