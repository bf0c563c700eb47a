"""Exact computer algebra for quantized enveloping algebras, quantum symmetric
pair coideal subalgebras, their characters and spherical functions."""

from .scalars import Field, FieldElem, UnrepresentableScalar, parse_scalar
from .rootdata import (RootDatum, SatakeDatum, RootDatumError, root_datum,
                       rank_one_satake, table1_constants, satake_from_config,
                       RANK_ONE_TYPES)
from .modules import (WeightModule, SimpleModule, ModuleVector, build_simple,
                      tensor, tensor_vector, act_Kh, DimensionCapExceeded,
                      ModuleError)
from .braid import Operator, lusztig_T, lusztig_T_word, phi_diag, rescaled_T
from .qsp import (Parameter, ParameterError, CoidealGenerators,
                  distinguished_parameter, coideal_generators, twist_parameter,
                  ad_Kh_parameter, chi_shift_coideal)
from .characters import (Character, SphericalLine, eigenvalue,
                         find_spherical_lines, find_dual_spherical,
                         dual_spherical_vector, akin_character, hermitian_scan,
                         MultiplicityViolation, NoDualLine)
from .quasik import (QuasiKOnModule, quasi_k, wz_operator, wz_character_check,
                     wz_precompose, IntertwinerError)
from .spherical import (MatrixCoefficient, TorusFunction, restrict_torus,
                        weight_function, weyl_act, is_weyl_invariant,
                        rho_shift, antipode_torus, tau0_bar_check,
                        appendix_double_sign_check)

__all__ = [
    "Field", "FieldElem", "UnrepresentableScalar", "parse_scalar",
    "RootDatum", "SatakeDatum", "RootDatumError", "root_datum",
    "rank_one_satake", "table1_constants", "satake_from_config",
    "RANK_ONE_TYPES",
    "WeightModule", "SimpleModule", "ModuleVector", "build_simple", "tensor",
    "tensor_vector", "act_Kh", "DimensionCapExceeded", "ModuleError",
    "Operator", "lusztig_T", "lusztig_T_word", "phi_diag", "rescaled_T",
    "Parameter", "ParameterError", "CoidealGenerators",
    "distinguished_parameter", "coideal_generators", "twist_parameter",
    "ad_Kh_parameter", "chi_shift_coideal",
    "Character", "SphericalLine", "eigenvalue", "find_spherical_lines",
    "find_dual_spherical", "dual_spherical_vector", "akin_character",
    "hermitian_scan", "MultiplicityViolation", "NoDualLine",
    "QuasiKOnModule", "quasi_k", "wz_operator", "wz_character_check",
    "wz_precompose", "IntertwinerError",
    "MatrixCoefficient", "TorusFunction", "restrict_torus", "weight_function",
    "weyl_act", "is_weyl_invariant", "rho_shift", "antipode_torus",
    "tau0_bar_check", "appendix_double_sign_check",
]
