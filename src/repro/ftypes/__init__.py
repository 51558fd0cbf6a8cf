"""Floating-point format infrastructure (§II, §III-B of the paper).

Public surface:

* formats:      :class:`FloatFormat`, ``FLOAT16/32/64``, ``BFLOAT16``...
* rounding:     :func:`quantize`, :class:`SoftwareFloatOps`
* dispatch:     Julia-style multiple dispatch (:class:`GenericFunction`)
* mathfuncs:    ``cbrt`` and friends with generic + specialised methods
* sherlog:      Sherlogs.jl-equivalent recording arrays
* compensated:  error-free transformations & compensated accumulators
* subnormals:   FTZ semantics + the A64FX subnormal penalty model
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FloatFormat": "formats",
    "FLOAT16": "formats",
    "FLOAT32": "formats",
    "FLOAT64": "formats",
    "BFLOAT16": "formats",
    "TFLOAT32": "formats",
    "FLOAT8_E4M3": "formats",
    "FLOAT8_E5M2": "formats",
    "STANDARD_FORMATS": "formats",
    "format_from_dtype": "formats",
    "lookup_format": "formats",
    "quantize": "rounding",
    "quantize_scalar": "rounding",
    "ulp": "rounding",
    "SoftwareFloatOps": "rounding",
    "NumberKind": "dispatch",
    "NUMBER": "dispatch",
    "REAL": "dispatch",
    "INTEGER": "dispatch",
    "ABSTRACT_FLOAT": "dispatch",
    "FLOAT64_KIND": "dispatch",
    "FLOAT32_KIND": "dispatch",
    "FLOAT16_KIND": "dispatch",
    "BFLOAT16_KIND": "dispatch",
    "GenericFunction": "dispatch",
    "generic_function": "dispatch",
    "kind_of": "dispatch",
    "register_dtype_kind": "dispatch",
    "MethodError": "dispatch",
    "AmbiguityError": "dispatch",
    "cbrt": "mathfuncs",
    "exp": "mathfuncs",
    "log": "mathfuncs",
    "sin": "mathfuncs",
    "cos": "mathfuncs",
    "make_unary_generic": "mathfuncs",
    "ExponentHistogram": "sherlog",
    "Sherlog": "sherlog",
    "Sherlog32": "sherlog",
    "Sherlog64": "sherlog",
    "suggest_scaling": "sherlog",
    "two_sum": "compensated",
    "fast_two_sum": "compensated",
    "kahan_sum": "compensated",
    "naive_sum": "compensated",
    "neumaier_sum": "compensated",
    "pairwise_sum": "compensated",
    "CompensatedAccumulator": "compensated",
    "stochastic_round": "stochastic",
    "StochasticFloatOps": "stochastic",
    "sr_sum": "stochastic",
    "encode": "bits",
    "decode": "bits",
    "bit_pattern": "bits",
    "all_values": "bits",
    "subnormal_mask": "subnormals",
    "count_subnormals": "subnormals",
    "subnormal_fraction": "subnormals",
    "flush_to_zero": "subnormals",
    "SubnormalPenaltyModel": "subnormals",
})
