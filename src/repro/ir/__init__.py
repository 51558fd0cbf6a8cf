"""Miniature compiler IR: the paper's §II / §IV-C compilation story.

Pipeline: :mod:`builder` constructs kernels (``muladd``, ``axpy``),
:mod:`passes` transforms them (Float16 widening, SVE vectorisation),
:mod:`interp` executes them bit-exactly on numpy data, :mod:`cost`
charges them against the machine model, and :mod:`printer` renders the
LLVM-like listings of §IV-C.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "HALF": "types",
    "FLOAT": "types",
    "DOUBLE": "types",
    "ScalarType": "types",
    "VectorType": "types",
    "IRType": "types",
    "wider": "types",
    "Value": "nodes",
    "Param": "nodes",
    "Instr": "nodes",
    "BinOp": "nodes",
    "UnOp": "nodes",
    "FMulAdd": "nodes",
    "Cast": "nodes",
    "Load": "nodes",
    "Store": "nodes",
    "Const": "nodes",
    "VScale": "nodes",
    "Splat": "nodes",
    "Ret": "nodes",
    "Loop": "nodes",
    "Function": "nodes",
    "IRBuilder": "builder",
    "build_muladd": "builder",
    "build_axpy": "builder",
    "build_dot": "builder",
    "Reduce": "nodes",
    "SoftFloatWideningPass": "passes",
    "VectorizePass": "passes",
    "FuseMulAddPass": "transforms",
    "DeadCodeEliminationPass": "transforms",
    "verify_function": "transforms",
    "VerificationError": "transforms",
    "Interpreter": "interp",
    "ExecutionTrace": "interp",
    "CostModel": "cost",
    "FunctionCost": "cost",
    "print_function": "printer",
})
