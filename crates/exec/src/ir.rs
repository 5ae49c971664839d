//! The linear IR: a flat, topologically ordered instruction list over
//! dense virtual registers.
//!
//! A [`Program`] is one fused basic block. Register `0` always holds the
//! current input sample `x(n)`; every instruction defines exactly one new
//! register, so instruction `i` defines register `i + 1` and the program
//! is in SSA form by construction. Shifts and negations ride on operands
//! ([`Operand`]) rather than on instructions, mirroring the adder-graph
//! convention that wiring is free ([`mrp_arch::Term`]).
//!
//! Arithmetic is wrapping on `i64`, matching
//! [`mrp_arch::PipelinedNetlist::step`]; callers that need overflow
//! detection compare against an exact tree-walk oracle, so a wrap reads
//! as a mismatch rather than a false pass.

use std::fmt;

/// A virtual register index. Register `0` is the input lane.
pub type VReg = u32;

/// A register reference with a free left shift and optional negation
/// applied on read — the IR image of [`mrp_arch::Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    /// Source register.
    pub reg: VReg,
    /// Left shift applied to the register value (must be `< 64`).
    pub shift: u32,
    /// Whether the shifted value is negated.
    pub negate: bool,
}

impl Operand {
    /// Plain (unshifted, unnegated) reference to a register.
    pub fn reg(reg: VReg) -> Self {
        Operand {
            reg,
            shift: 0,
            negate: false,
        }
    }

    /// Applies the shift and negation to a register value, wrapping on
    /// `i64` exactly like truncating an `i128` intermediate.
    #[inline]
    pub fn apply(&self, v: i64) -> i64 {
        let shifted = v.wrapping_shl(self.shift);
        if self.negate {
            shifted.wrapping_neg()
        } else {
            shifted
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "-")?;
        }
        write!(f, "r{}", self.reg)?;
        if self.shift > 0 {
            write!(f, "<<{}", self.shift)?;
        }
        Ok(())
    }
}

/// One instruction of the linear IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// `dst = lhs + rhs` (each operand shifted/negated on read, wrapping
    /// add). Subtraction is an `Add` whose right operand is negated.
    Add {
        /// Defined register (always the instruction index + 1).
        dst: VReg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst(n) = src(n − 1)` — a unit delay (`z⁻¹`): a pipeline register
    /// or a TDF tap register. `carry` indexes the persistent state slot
    /// holding the value crossing a batch boundary; state starts at 0.
    Delay {
        /// Defined register (always the instruction index + 1).
        dst: VReg,
        /// Delayed operand (shift/negation applied before the delay).
        src: Operand,
        /// Persistent state slot index (dense, in instruction order).
        carry: u32,
    },
}

impl Inst {
    /// The register this instruction defines.
    pub fn dst(&self) -> VReg {
        match *self {
            Inst::Add { dst, .. } | Inst::Delay { dst, .. } => dst,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Add { dst, lhs, rhs } => write!(f, "r{dst} = {lhs} + {rhs}"),
            Inst::Delay { dst, src, carry } => {
                write!(f, "r{dst} = delay {src} (carry {carry})")
            }
        }
    }
}

/// A labeled program output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOutput {
    /// Label carried over from the netlist output (e.g. `c3`) or `y` for
    /// a full-filter program.
    pub label: String,
    /// The operand read for this output, or `None` for a constant-zero
    /// output (an `expected = 0` placeholder tap, or an all-zero filter).
    pub term: Option<Operand>,
    /// For block/pipelined programs, the constant the output multiplies
    /// `x` by; meaningless (0) for full-filter programs, whose single
    /// output is the convolution `y(n)`.
    pub expected: i64,
}

/// A compiled program: one fused basic block plus its delay state layout,
/// output map, and pipeline latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Instructions in execution (topological) order.
    pub insts: Vec<Inst>,
    /// Total virtual registers, including the input register `0`.
    pub regs: u32,
    /// Number of persistent delay-state slots.
    pub carries: u32,
    /// Output map, in netlist output order.
    pub outputs: Vec<ProgramOutput>,
    /// Cycles before the first meaningful output (0 for combinational
    /// programs; the pipeline depth for lowered [`mrp_arch::PipelinedNetlist`]s).
    pub latency: u32,
}

impl Program {
    /// Structural invariants the interpreter relies on: instruction `i`
    /// defines register `i + 1`, every operand reads an already-defined
    /// register, shifts stay below 64, and carry slots are dense in
    /// instruction order. Returns the first violation, rendered.
    ///
    /// Lowering produces valid programs by construction; this exists so
    /// tests (and hand-built programs) can assert it.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.regs != self.insts.len() as u32 + 1 {
            return Err(format!(
                "regs = {} but {} instructions (+1 input) define {}",
                self.regs,
                self.insts.len(),
                self.insts.len() + 1
            ));
        }
        let check = |op: &Operand, dst: VReg| -> Result<(), String> {
            if op.reg >= dst {
                return Err(format!("operand {op} read before definition (at r{dst})"));
            }
            if op.shift >= 64 {
                return Err(format!("operand {op} shift {} out of range", op.shift));
            }
            Ok(())
        };
        let mut next_carry = 0u32;
        for (i, inst) in self.insts.iter().enumerate() {
            let want = i as u32 + 1;
            if inst.dst() != want {
                return Err(format!(
                    "instruction {i} defines r{}, want r{want}",
                    inst.dst()
                ));
            }
            match inst {
                Inst::Add { dst, lhs, rhs } => {
                    check(lhs, *dst)?;
                    check(rhs, *dst)?;
                }
                Inst::Delay { dst, src, carry } => {
                    check(src, *dst)?;
                    if *carry != next_carry {
                        return Err(format!(
                            "instruction {i} uses carry {carry}, want {next_carry}"
                        ));
                    }
                    next_carry += 1;
                }
            }
        }
        if next_carry != self.carries {
            return Err(format!(
                "carries = {} but {next_carry} delay slots allocated",
                self.carries
            ));
        }
        for o in &self.outputs {
            if let Some(t) = &o.term {
                if t.reg >= self.regs {
                    return Err(format!("output `{}` reads undefined {t}", o.label));
                }
                if t.shift >= 64 {
                    return Err(format!(
                        "output `{}` shift {} out of range",
                        o.label, t.shift
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of `Add` instructions (the arithmetic work per sample).
    pub fn adds(&self) -> usize {
        self.insts
            .iter()
            .filter(|i| matches!(i, Inst::Add { .. }))
            .count()
    }

    /// Number of `Delay` instructions (registers in the modeled datapath).
    pub fn delays(&self) -> usize {
        self.insts.len() - self.adds()
    }
}

impl fmt::Display for Program {
    /// Renders the listing, one instruction per line, then the outputs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; {} regs, {} carries, latency {}",
            self.regs, self.carries, self.latency
        )?;
        for inst in &self.insts {
            writeln!(f, "{inst}")?;
        }
        for o in &self.outputs {
            match &o.term {
                Some(t) => writeln!(f, "out {} = {t} ; expected {}", o.label, o.expected)?,
                None => writeln!(f, "out {} = 0 ; expected {}", o.label, o.expected)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        Program {
            insts: vec![
                Inst::Add {
                    dst: 1,
                    lhs: Operand {
                        reg: 0,
                        shift: 1,
                        negate: false,
                    },
                    rhs: Operand::reg(0),
                },
                Inst::Delay {
                    dst: 2,
                    src: Operand::reg(1),
                    carry: 0,
                },
            ],
            regs: 3,
            carries: 1,
            outputs: vec![ProgramOutput {
                label: "y".to_string(),
                term: Some(Operand::reg(2)),
                expected: 3,
            }],
            latency: 0,
        }
    }

    #[test]
    fn valid_program_passes() {
        tiny().validate().unwrap();
    }

    #[test]
    fn dst_must_be_dense() {
        let mut p = tiny();
        if let Inst::Add { dst, .. } = &mut p.insts[0] {
            *dst = 2;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn operands_must_be_defined_first() {
        let mut p = tiny();
        if let Inst::Add { lhs, .. } = &mut p.insts[0] {
            lhs.reg = 5;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn carries_must_be_dense() {
        let mut p = tiny();
        if let Inst::Delay { carry, .. } = &mut p.insts[1] {
            *carry = 3;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn oversized_shift_rejected() {
        let mut p = tiny();
        if let Inst::Add { lhs, .. } = &mut p.insts[0] {
            lhs.shift = 64;
        }
        assert!(p.validate().is_err());
    }

    #[test]
    fn listing_renders() {
        let text = tiny().to_string();
        assert!(text.contains("r1 = r0<<1 + r0"), "{text}");
        assert!(text.contains("r2 = delay r1 (carry 0)"), "{text}");
        assert!(text.contains("out y = r2 ; expected 3"), "{text}");
    }

    #[test]
    fn operand_apply_wraps() {
        let op = Operand {
            reg: 0,
            shift: 1,
            negate: true,
        };
        assert_eq!(op.apply(3), -6);
        // i64::MIN << 0 negated wraps back to i64::MIN.
        let neg = Operand {
            reg: 0,
            shift: 0,
            negate: true,
        };
        assert_eq!(neg.apply(i64::MIN), i64::MIN);
    }
}
