"""Synthetic workload substrate (programs, traces, SPECint2000 profiles)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bbdict": ("BasicBlockDictionary", "StaticBlockView"),
    ".cfg": ("BasicBlock", "ControlFlowGraph", "Function"),
    ".generator": ("ProgramGenerator", "WorkloadProfile", "generate_program"),
    ".isa": ("INSTRUCTION_BYTES", "BranchKind", "InstrClass"),
    ".spec2000": ("DEFAULT_MIX", "SPECINT2000_NAMES", "SPECINT2000_PROFILES",
                  "profile_for", "profiles_for"),
    ".trace": ("ActualStream", "CorrectPathOracle", "DynamicBlock",
               "ProgramWalker", "Workload", "build_workload"),
})
