"""Budget-constrained approximate inference in discrete factor graphs.

Builds an explicit search tree over variable prefixes with soft-Bellman
backups, guided by a prior state-action value function, and compares against
SIS/SMC/Gibbs/loopy-BP baselines under identical evaluation budgets.
"""

from .baselines import WeightedAtoms, bp_sample, gibbs, sis, smc
from .exact import ExactSolution, solve_exact
from .generators import GeneratorSpec, gen_chain, gen_fg1, gen_fg2, gen_permuted_chain, generate
from .logmath import ZeroMassError, logsumexp
from .metrics import (
    EvalReport,
    SamplerEstimate,
    delta_kl_atoms,
    delta_kl_sampler,
    energy_entropy_deltas,
    evaluate_method,
)
from .model import BudgetLedger, Factor, FactorGraph, graph_from_json_dict, graph_to_json_dict, load_graph, save_graph
from .prior import (
    Adam,
    HeuristicPrior,
    MLPValueFunction,
    ReplayBuffer,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    train_step,
)
from .search import SearchTree, TreeNode, backup, build_tree, expand, q_uct_select

__version__ = "0.1.0"
