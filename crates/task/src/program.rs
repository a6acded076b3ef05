//! The fused stage program — the wire format of `FUSED` / `FUSED_AGG`.
//!
//! A fused node reaches its kernel through the same scalar parameter list as
//! every other primitive, so its merged stages travel flattened:
//!
//! ```text
//! [n_stages, (kind, n_operands, operands.., n_params, params..)*]
//! ```
//!
//! `kind` is [`PrimitiveKind::op_code`], `params` are exactly the scalars the
//! standalone kernel would receive, and an operand is signed: `>= 0` names
//! the fused node's external input at that index, `< 0` an output port of
//! an earlier stage's in-kernel result. A stage operand packs the stage in
//! the low 32 bits and the port above them and is written as
//! `-(packed + 1)`, so port 0 of stage `j` is `-(j + 1)`: a program whose
//! stages read only port 0 has the bytes it had before stages had ports.
//! Only `HASH_PROBE` has more than one port (positions, then one payload
//! column per port). This module is the only place that knows the layout:
//! `adamant-core` encodes a fused node's params through [`encode`], the
//! interpreter kernel reads them back through [`decode`].

use crate::kernels::bad_args;
use crate::primitive::PrimitiveKind;
use adamant_device::error::{DeviceError, Result};

/// Where one stage of a fused chain reads an operand from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedOperand {
    /// The fused node's external input at this index.
    External(usize),
    /// Output port `.1` of an earlier stage `.0`'s in-kernel result.
    Stage(usize, usize),
}

/// Bits of a packed stage operand that hold the stage; the port sits above.
const PORT_SHIFT: u32 = 32;

/// One stage in wire form: the original primitive, its operand sources and
/// its own scalar parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// The original primitive.
    pub kind: PrimitiveKind,
    /// Operand sources, positional per the original signature.
    pub operands: Vec<FusedOperand>,
    /// The scalars the standalone kernel would receive.
    pub params: Vec<i64>,
}

/// Flattens `stages` into a fused node's scalar parameter list.
pub fn encode(stages: &[Stage]) -> Vec<i64> {
    let mut out = vec![stages.len() as i64];
    for stage in stages {
        out.push(stage.kind.op_code());
        out.push(stage.operands.len() as i64);
        out.extend(stage.operands.iter().map(|o| match *o {
            FusedOperand::External(i) => i as i64,
            FusedOperand::Stage(j, port) => -((port as i64) << PORT_SHIFT | j as i64) - 1,
        }));
        out.push(stage.params.len() as i64);
        out.extend_from_slice(&stage.params);
    }
    out
}

fn bad(reason: impl Into<String>) -> DeviceError {
    bad_args("fused", reason)
}

fn take(rest: &mut &[i64], what: &str) -> Result<i64> {
    let (&v, tail) = rest
        .split_first()
        .ok_or_else(|| bad(format!("truncated stage program at {what}")))?;
    *rest = tail;
    Ok(v)
}

/// Takes a count. Every counted item is at least one scalar, so a count
/// larger than what is left of the program is malformed — checking that here
/// keeps a hostile count from ever sizing an allocation.
fn take_count(rest: &mut &[i64], what: &str) -> Result<usize> {
    let v = take(rest, what)?;
    usize::try_from(v)
        .ok()
        .filter(|&n| n <= rest.len())
        .ok_or_else(|| bad(format!("{what} {v} is negative or runs past the program")))
}

/// Takes a count and the run of that many scalars it announces.
fn take_run<'a>(rest: &mut &'a [i64], what: &str) -> Result<&'a [i64]> {
    let n = take_count(rest, what)?;
    let (run, tail) = rest.split_at(n);
    *rest = tail;
    Ok(run)
}

/// Inverse of [`encode`]. The scalars come from the caller of the kernel
/// interface, so every malformed program — truncated, a count that is
/// negative or past the end, an unknown op code, a stage reading a later
/// stage (at any port) — is a `BadKernelArgs` error. A port the stage does
/// not have is the interpreter's to reject.
pub fn decode(scalars: &[i64]) -> Result<Vec<Stage>> {
    let mut rest = scalars;
    let n_stages = take_count(&mut rest, "stage count")?;
    if n_stages == 0 {
        return Err(bad("empty stage program"));
    }
    let mut stages = Vec::with_capacity(n_stages);
    for si in 0..n_stages {
        let kind = PrimitiveKind::from_op_code(take(&mut rest, "stage kind")?)
            .ok_or_else(|| bad("unknown stage op code"))?;
        let operands = take_run(&mut rest, "operand count")?
            .iter()
            .map(|&code| {
                if let Ok(i) = usize::try_from(code) {
                    return Ok(FusedOperand::External(i));
                }
                // `-(code + 1)` cannot overflow: `code + 1 <= 0`.
                let packed = (-(code + 1)) as u64;
                let stage = (packed & ((1 << PORT_SHIFT) - 1)) as usize;
                let port = (packed >> PORT_SHIFT) as usize;
                if stage < si {
                    Ok(FusedOperand::Stage(stage, port))
                } else {
                    Err(bad("stage operand references a later stage"))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let params = take_run(&mut rest, "param count")?.to_vec();
        stages.push(Stage {
            kind,
            operands,
            params,
        });
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Stage> {
        vec![
            Stage {
                kind: PrimitiveKind::FilterBitmap,
                operands: vec![FusedOperand::External(0)],
                params: vec![0, 50, 0],
            },
            Stage {
                kind: PrimitiveKind::Materialize,
                operands: vec![FusedOperand::External(1), FusedOperand::Stage(0, 0)],
                params: vec![],
            },
            Stage {
                kind: PrimitiveKind::AggBlock,
                operands: vec![FusedOperand::Stage(1, 0)],
                params: vec![i64::MIN],
            },
        ]
    }

    #[test]
    fn port_operands_round_trip() {
        let probe = PrimitiveKind::HashProbe;
        let gather = PrimitiveKind::MaterializePosition;
        let stages = vec![
            Stage {
                kind: probe,
                operands: vec![FusedOperand::External(0), FusedOperand::External(1)],
                params: vec![2],
            },
            Stage {
                kind: gather,
                operands: vec![FusedOperand::Stage(0, 2), FusedOperand::Stage(0, 0)],
                params: vec![],
            },
        ];
        let scalars = encode(&stages);
        // Port 0 is the bare stage code; port 2 sits above the stage bits.
        assert_eq!(scalars[9..11], [-(2 << 32) - 1, -1]);
        assert_eq!(decode(&scalars).unwrap(), stages);
        // The largest port and stage the packing holds survive the trip.
        let far = FusedOperand::Stage(0, (1 << 31) - 1);
        let mut wide = stages.clone();
        wide[1].operands[0] = far;
        assert_eq!(decode(&encode(&wide)).unwrap(), wide);
    }

    #[test]
    fn a_port_on_a_later_stage_is_rejected() {
        let gather = PrimitiveKind::MaterializePosition.op_code();
        let probe = PrimitiveKind::HashProbe.op_code();
        let later = |stage: i64, port: i64| -((port << 32) | stage) - 1;
        // One stage reading port 1 of itself, then of stage 1 (later).
        assert!(decode(&[1, gather, 2, 0, later(0, 1), 0]).is_err());
        assert!(decode(&[2, probe, 2, 0, 1, 1, 1, gather, 2, 0, later(2, 1), 0]).is_err());
        assert!(decode(&[2, probe, 2, 0, 1, 1, 1, gather, 2, 0, later(1, 1), 0]).is_err());
        // The same port of the earlier stage decodes.
        let ok = decode(&[2, probe, 2, 0, 1, 1, 1, gather, 2, 0, later(0, 1), 0]).unwrap();
        assert_eq!(ok[1].operands[1], FusedOperand::Stage(0, 1));
    }

    #[test]
    fn round_trips() {
        let stages = sample();
        let scalars = encode(&stages);
        assert_eq!(scalars[..5], [3, 2, 1, 0, 3]);
        assert_eq!(decode(&scalars).unwrap(), stages);
    }

    #[test]
    fn hostile_programs_are_errors_not_panics() {
        let valid = encode(&sample());
        // Every strict prefix is truncated somewhere.
        for cut in 0..valid.len() {
            assert!(decode(&valid[..cut]).is_err(), "prefix of {cut}");
        }
        let map = PrimitiveKind::Map.op_code();
        let hostile: [&[i64]; 12] = [
            &[0],
            &[-1],
            &[i64::MAX],
            &[i64::MIN],
            &[1 << 40, map, 0, 0],
            &[1, 99, 0, 0],
            &[1, map, -1, 0],
            &[1, map, i64::MAX],
            &[1, map, 2, 0, 0],
            &[1, map, 0, -1],
            &[1, map, 0, i64::MAX],
            &[2, map, 1, 0, 0, map, 1, -2, 0],
        ];
        for program in hostile {
            assert!(decode(program).is_err(), "{program:?}");
        }
        // A stage may read itself no more than a later one; i64::MIN is the
        // farthest "later stage" there is.
        assert!(decode(&[1, map, 1, -1, 0]).is_err());
        assert!(decode(&[1, map, 1, i64::MIN, 0]).is_err());
    }
}
