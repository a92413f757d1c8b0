"""First-order logic where binding is handled with atoms and swaps.

The pieces, roughly bottom-up:

- `atoms`: atoms, finite permutations, the swap test for freshness, and
  support as a frozenset of atoms, which `ascending` puts in order;
- `syntax`: terms and formulas, alpha-equivalence as a derived relation,
  capture-avoiding substitution;
- `parsing`: a small concrete syntax for terms, formulas, sequents, and
  signatures;
- `sequents` / `proofs`: sequent-calculus derivations, rule checking, and an
  s-expression proof file format;
- `algebra`: the substitution laws as a randomized suite over pluggable
  carriers;
- `lifting` / `lattice`: finite dependency tables, the ordered structure over
  them, and its law suite;
- `models` / `interpret`: ordinary finite models, table denotations, and
  exhaustive countermodel search;
- `cli`: the `nomlog` command.
"""

from .atoms import Atom, Carrier, Perm, ascending, fresh_atom, is_fresh_by_swap, swap
from .errors import (
    ArityError,
    DerivationError,
    ModelFormatError,
    NomlogError,
    ParseError,
    SearchBudgetError,
    UnboundAtomError,
    UnknownSymbolError,
)
from .syntax import (
    All,
    And,
    App,
    Bot,
    Formula,
    Neg,
    Pred,
    Signature,
    Term,
    Var,
    act_formula,
    act_term,
    alpha_eq,
    fa_formula,
    fa_term,
    print_formula,
    print_term,
    subst_formula,
    subst_term,
    used_signature,
)
from .parsing import (
    AtomContext,
    parse_formula,
    parse_sequent,
    parse_signature,
    parse_term,
)
from .sequents import Derivation, Sequent, check_derivation, fa_sequent
from .proofs import format_proof, load_proof
from .models import OrdinaryModel, Valuation, dump_model, eval_formula, eval_term, load_model
from .lifting import (
    LiftedElem,
    atm_lift,
    dump_lifted,
    eval_at,
    fresh_glb_lift,
    le_lift,
    neg_lift,
    sub_lift,
)
from .algebra import (
    SubstAlgebra,
    SuiteReport,
    TermlikeAlgebra,
    atoms_algebra,
    formula_algebra,
    lifted_term_algebra,
    run_axiom_suite,
    suite_ok,
    term_algebra,
)
from .lattice import NominalPoset, lifted_nba, run_nba_suite
from .interpret import (
    Countermodel,
    countermodel_search,
    denote_formula,
    denote_term,
    enumerate_models,
    is_valid,
    sequent_holds,
)

__version__ = "0.1.0"

__all__ = [
    "All",
    "And",
    "App",
    "ArityError",
    "Atom",
    "AtomContext",
    "Bot",
    "Carrier",
    "Countermodel",
    "Derivation",
    "DerivationError",
    "Formula",
    "LiftedElem",
    "ModelFormatError",
    "Neg",
    "NominalPoset",
    "NomlogError",
    "OrdinaryModel",
    "ParseError",
    "Perm",
    "Pred",
    "SearchBudgetError",
    "Sequent",
    "Signature",
    "SubstAlgebra",
    "SuiteReport",
    "Term",
    "TermlikeAlgebra",
    "UnboundAtomError",
    "UnknownSymbolError",
    "Valuation",
    "Var",
    "act_formula",
    "act_term",
    "alpha_eq",
    "ascending",
    "atm_lift",
    "atoms_algebra",
    "check_derivation",
    "countermodel_search",
    "denote_formula",
    "denote_term",
    "dump_lifted",
    "dump_model",
    "enumerate_models",
    "eval_at",
    "eval_formula",
    "eval_term",
    "fa_formula",
    "fa_sequent",
    "fa_term",
    "format_proof",
    "formula_algebra",
    "fresh_atom",
    "fresh_glb_lift",
    "is_fresh_by_swap",
    "is_valid",
    "le_lift",
    "lifted_nba",
    "lifted_term_algebra",
    "load_model",
    "load_proof",
    "neg_lift",
    "parse_formula",
    "parse_sequent",
    "parse_signature",
    "parse_term",
    "print_formula",
    "print_term",
    "run_axiom_suite",
    "run_nba_suite",
    "sequent_holds",
    "sub_lift",
    "subst_formula",
    "subst_term",
    "suite_ok",
    "swap",
    "term_algebra",
    "used_signature",
]
