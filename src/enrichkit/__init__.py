"""enrichkit: a finite-model engine for enriched category theory.

The base monoidal category is arbitrary: no symmetry, no closedness.  The
library builds enriched presheaf categories over finite bases, verifies the
enriched Yoneda lemma mechanically, and computes weighted colimits and the
Ext/Res equivalence over the cocomplete base of skeletal finite sets.
"""

from .caps import Caps, DEFAULT_CAPS
from .errors import EnrichKitError
from .fincat import (
    FinCat,
    FinFunctor,
    enumerate_functors,
    fin_functor,
    validate_fincat,
)
from .finset import SkMap, SkSet, coequalizer, coproduct, product
from .monoidal import (
    boolean_monoidal,
    discrete_monoid_monoidal,
    finset_coproduct_monoidal,
    finset_product_monoidal,
    opposite_monoidal,
    validate_monoidal,
)
from .enriched import MCat, mcat_from_fincat, opposite_mcat, validate_mcat
from .tensored import base_as_module, hom_object_all, validate_module
from .mfunctor import (
    MFunET,
    enumerate_mfun_et,
    measure_unit_automatism,
    validate_mfun_et,
    validate_mfun_tt,
)
from .presheaf import (
    Presheaf,
    PresheafMor,
    check_fully_faithful,
    check_yoneda_lemma,
    enumerate_presheaves,
    tensor_presheaf,
    validate_presheaf,
    yoneda,
    yoneda_presheaf,
)
from .wcolim import (
    Ext,
    FinSetModule,
    PresheafModule,
    canonical_presentation,
    check_equivalence,
    check_universal,
    ext,
    res,
    weighted_colimit,
)

__version__ = "0.1.0"
