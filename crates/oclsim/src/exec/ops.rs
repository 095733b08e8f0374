//! Scalar operation semantics on canonical 64-bit register values.
//!
//! Canonical representation: signed integers are sign-extended to 64 bits,
//! unsigned integers and `bool` are zero-extended, `float` occupies the low
//! 32 bits, `double` the full word. Every operation takes canonical inputs
//! and produces canonical outputs.
//!
//! These functions are the one implementation of scalar arithmetic. Both
//! execution engines (the reference interpreter and the `wg` VM) run
//! them, and every compile-time fold goes through them too: sema folds
//! literal casts and constant operands with [`cast_bits`] and [`bin_op`]
//! and evaluates array lengths and barrier flags with
//! `clc::dataflow::eval_const`, which the optimizer's const-fold pass
//! also uses and which is built on these functions. So folding can never
//! diverge from execution.

use crate::error::{Error, Result};
use crate::exec::ir::{BOp, COp, UOp};
use crate::types::ScalarType;

#[inline]
fn canon_i(ty: ScalarType, v: i64) -> u64 {
    match ty {
        ScalarType::I8 => (v as i8) as i64 as u64,
        ScalarType::I16 => (v as i16) as i64 as u64,
        ScalarType::I32 => (v as i32) as i64 as u64,
        ScalarType::I64 => v as u64,
        _ => unreachable!("canon_i on non-signed type"),
    }
}

#[inline]
fn canon_u(ty: ScalarType, v: u64) -> u64 {
    match ty {
        ScalarType::Bool => (v != 0) as u64,
        ScalarType::U8 => v & 0xFF,
        ScalarType::U16 => v & 0xFFFF,
        ScalarType::U32 => v & 0xFFFF_FFFF,
        ScalarType::U64 => v,
        _ => unreachable!("canon_u on non-unsigned type"),
    }
}

/// Convert canonical bits between scalar types (C cast semantics).
pub fn cast_bits(bits: u64, from: ScalarType, to: ScalarType) -> u64 {
    use ScalarType::*;
    if from == to {
        return bits;
    }
    // read the source as the widest faithful representation
    let as_f64 = |b: u64| -> f64 {
        match from {
            F32 => f32::from_bits(b as u32) as f64,
            F64 => f64::from_bits(b),
            I8 | I16 | I32 | I64 => (b as i64) as f64,
            U8 | U16 | U32 | U64 | Bool => b as f64,
        }
    };
    match to {
        F32 => ((as_f64(bits) as f32).to_bits()) as u64,
        F64 => as_f64(bits).to_bits(),
        _ if from.is_float() => {
            let f = as_f64(bits);
            match to {
                Bool => (f != 0.0) as u64,
                I8 => canon_i(I8, f as i8 as i64),
                I16 => canon_i(I16, f as i16 as i64),
                I32 => canon_i(I32, f as i32 as i64),
                I64 => (f as i64) as u64,
                U8 => f as u8 as u64,
                U16 => f as u16 as u64,
                U32 => f as u32 as u64,
                U64 => f as u64,
                F32 | F64 => unreachable!(),
            }
        }
        Bool => (bits != 0) as u64,
        I8 | I16 | I32 | I64 => canon_i(to, bits as i64),
        U8 | U16 | U32 | U64 => canon_u(to, bits),
    }
}

/// Binary arithmetic/bitwise at `ty`.
pub fn bin_op(op: BOp, ty: ScalarType, a: u64, b: u64) -> Result<u64> {
    use ScalarType::*;
    if ty.is_float() {
        let (x, y) = if ty == F32 {
            (
                f32::from_bits(a as u32) as f64,
                f32::from_bits(b as u32) as f64,
            )
        } else {
            (f64::from_bits(a), f64::from_bits(b))
        };
        let r = match op {
            BOp::Add => x + y,
            BOp::Sub => x - y,
            BOp::Mul => x * y,
            BOp::Div => x / y,
            _ => unreachable!("sema rejects {op:?} on floats"),
        };
        return Ok(if ty == F32 {
            // round through f32 to keep single-precision semantics
            ((x_to_f32(x, y, op)).to_bits()) as u64
        } else {
            r.to_bits()
        });

        // helper keeps f32 arithmetic genuinely single-precision
        fn x_to_f32(x: f64, y: f64, op: BOp) -> f32 {
            let (x, y) = (x as f32, y as f32);
            match op {
                BOp::Add => x + y,
                BOp::Sub => x - y,
                BOp::Mul => x * y,
                BOp::Div => x / y,
                _ => unreachable!(),
            }
        }
    }
    if ty.is_signed() {
        let (x, y) = (a as i64, b as i64);
        let r = match op {
            BOp::Add => x.wrapping_add(y),
            BOp::Sub => x.wrapping_sub(y),
            BOp::Mul => x.wrapping_mul(y),
            BOp::Div => {
                if y == 0 {
                    return Err(Error::ArithmeticFault("integer division by zero".into()));
                }
                x.wrapping_div(y)
            }
            BOp::Rem => {
                if y == 0 {
                    return Err(Error::ArithmeticFault("integer remainder by zero".into()));
                }
                x.wrapping_rem(y)
            }
            BOp::And => x & y,
            BOp::Or => x | y,
            BOp::Xor => x ^ y,
            BOp::Shl => x.wrapping_shl(shift_amount(ty, y as u64)),
            BOp::Shr => x.wrapping_shr(shift_amount(ty, y as u64)),
        };
        Ok(canon_i(ty, r))
    } else {
        // unsigned: operate within the type's width
        let (x, y) = (canon_u(ty, a), canon_u(ty, b));
        let r = match op {
            BOp::Add => x.wrapping_add(y),
            BOp::Sub => x.wrapping_sub(y),
            BOp::Mul => x.wrapping_mul(y),
            BOp::Div => {
                if y == 0 {
                    return Err(Error::ArithmeticFault("integer division by zero".into()));
                }
                x / y
            }
            BOp::Rem => {
                if y == 0 {
                    return Err(Error::ArithmeticFault("integer remainder by zero".into()));
                }
                x % y
            }
            BOp::And => x & y,
            BOp::Or => x | y,
            BOp::Xor => x ^ y,
            BOp::Shl => x.wrapping_shl(shift_amount(ty, y)),
            BOp::Shr => x.wrapping_shr(shift_amount(ty, y)),
        };
        Ok(canon_u(ty, r))
    }
}

/// OpenCL shift semantics: the amount is taken modulo the operand width.
fn shift_amount(ty: ScalarType, amount: u64) -> u32 {
    let width = (ty.size() * 8) as u64;
    (amount % width) as u32
}

/// Comparison at `ty`; returns 0 or 1.
pub fn cmp_op(op: COp, ty: ScalarType, a: u64, b: u64) -> u64 {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = if ty.is_float() {
        let (x, y) = if ty == ScalarType::F32 {
            (
                f32::from_bits(a as u32) as f64,
                f32::from_bits(b as u32) as f64,
            )
        } else {
            (f64::from_bits(a), f64::from_bits(b))
        };
        x.partial_cmp(&y)
    } else if ty.is_signed() {
        Some((a as i64).cmp(&(b as i64)))
    } else {
        Some(a.cmp(&b))
    };
    let r = match (op, ord) {
        // any comparison with NaN is false except !=
        (COp::Ne, None) => true,
        (_, None) => false,
        (COp::Lt, Some(o)) => o == Ordering::Less,
        (COp::Gt, Some(o)) => o == Ordering::Greater,
        (COp::Le, Some(o)) => o != Ordering::Greater,
        (COp::Ge, Some(o)) => o != Ordering::Less,
        (COp::Eq, Some(o)) => o == Ordering::Equal,
        (COp::Ne, Some(o)) => o != Ordering::Equal,
    };
    r as u64
}

/// Unary op at `ty`.
pub fn un_op(op: UOp, ty: ScalarType, a: u64) -> u64 {
    match op {
        UOp::Not => (a == 0) as u64,
        UOp::BitNot => {
            if ty.is_signed() {
                canon_i(ty, !(a as i64))
            } else {
                canon_u(ty, !a)
            }
        }
        UOp::Neg => {
            if ty == ScalarType::F32 {
                ((-f32::from_bits(a as u32)).to_bits()) as u64
            } else if ty == ScalarType::F64 {
                (-f64::from_bits(a)).to_bits()
            } else if ty.is_signed() {
                canon_i(ty, (a as i64).wrapping_neg())
            } else {
                canon_u(ty, a.wrapping_neg())
            }
        }
    }
}

/// One-argument float builtins.
pub fn math1(f: impl Fn(f64) -> f64, ty: ScalarType, a: u64) -> u64 {
    if ty == ScalarType::F32 {
        let x = f32::from_bits(a as u32);
        ((f(x as f64) as f32).to_bits()) as u64
    } else {
        f(f64::from_bits(a)).to_bits()
    }
}

/// Two-argument float builtins.
pub fn math2(f: impl Fn(f64, f64) -> f64, ty: ScalarType, a: u64, b: u64) -> u64 {
    if ty == ScalarType::F32 {
        let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
        ((f(x as f64, y as f64) as f32).to_bits()) as u64
    } else {
        f(f64::from_bits(a), f64::from_bits(b)).to_bits()
    }
}

/// Three-argument float builtins (mad/fma).
pub fn math3(f: impl Fn(f64, f64, f64) -> f64, ty: ScalarType, a: u64, b: u64, c: u64) -> u64 {
    if ty == ScalarType::F32 {
        let (x, y, z) = (
            f32::from_bits(a as u32),
            f32::from_bits(b as u32),
            f32::from_bits(c as u32),
        );
        ((f(x as f64, y as f64, z as f64) as f32).to_bits()) as u64
    } else {
        f(f64::from_bits(a), f64::from_bits(b), f64::from_bits(c)).to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn b(v: Value) -> u64 {
        v.to_bits()
    }

    #[test]
    fn signed_arithmetic_canonical() {
        let r = bin_op(
            BOp::Sub,
            ScalarType::I32,
            b(Value::I32(1)),
            b(Value::I32(3)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::I32), Value::I32(-2));
        assert_eq!(r, u64::MAX - 1, "result must stay sign-extended");
    }

    #[test]
    fn i32_overflow_wraps_at_32_bits() {
        let r = bin_op(
            BOp::Add,
            ScalarType::I32,
            b(Value::I32(i32::MAX)),
            b(Value::I32(1)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::I32), Value::I32(i32::MIN));
    }

    #[test]
    fn unsigned_wraps_within_width() {
        let r = bin_op(
            BOp::Add,
            ScalarType::U32,
            b(Value::U32(u32::MAX)),
            b(Value::U32(2)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::U32), Value::U32(1));
        let r = bin_op(
            BOp::Sub,
            ScalarType::U32,
            b(Value::U32(0)),
            b(Value::U32(1)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::U32), Value::U32(u32::MAX));
    }

    #[test]
    fn division_semantics() {
        let r = bin_op(
            BOp::Div,
            ScalarType::I32,
            b(Value::I32(-7)),
            b(Value::I32(2)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::I32),
            Value::I32(-3),
            "C truncates toward zero"
        );
        let r = bin_op(
            BOp::Rem,
            ScalarType::I32,
            b(Value::I32(-7)),
            b(Value::I32(2)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::I32), Value::I32(-1));
        assert!(bin_op(BOp::Div, ScalarType::I32, 1, 0).is_err());
        assert!(bin_op(BOp::Rem, ScalarType::U64, 1, 0).is_err());
    }

    #[test]
    fn float_div_by_zero_is_inf() {
        let r = bin_op(
            BOp::Div,
            ScalarType::F32,
            b(Value::F32(1.0)),
            b(Value::F32(0.0)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::F32),
            Value::F32(f32::INFINITY)
        );
    }

    #[test]
    fn f32_arithmetic_is_single_precision() {
        // 1e8 + 1 is not representable in f32
        let r = bin_op(
            BOp::Add,
            ScalarType::F32,
            b(Value::F32(1.0e8)),
            b(Value::F32(1.0)),
        )
        .unwrap();
        assert_eq!(Value::from_bits(r, ScalarType::F32), Value::F32(1.0e8));
        // but is in f64
        let r = bin_op(
            BOp::Add,
            ScalarType::F64,
            b(Value::F64(1.0e8)),
            b(Value::F64(1.0)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::F64),
            Value::F64(100000001.0)
        );
    }

    #[test]
    fn shifts_mod_width() {
        let r = bin_op(
            BOp::Shl,
            ScalarType::U32,
            b(Value::U32(1)),
            b(Value::U32(33)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::U32),
            Value::U32(2),
            "33 % 32 == 1"
        );
        let r = bin_op(
            BOp::Shr,
            ScalarType::I32,
            b(Value::I32(-8)),
            b(Value::I32(1)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::I32),
            Value::I32(-4),
            "arithmetic shift"
        );
        let r = bin_op(
            BOp::Shr,
            ScalarType::U32,
            b(Value::U32(0x8000_0000)),
            b(Value::U32(1)),
        )
        .unwrap();
        assert_eq!(
            Value::from_bits(r, ScalarType::U32),
            Value::U32(0x4000_0000),
            "logical shift"
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            cmp_op(
                COp::Lt,
                ScalarType::I32,
                b(Value::I32(-1)),
                b(Value::I32(1))
            ),
            1
        );
        assert_eq!(
            cmp_op(
                COp::Lt,
                ScalarType::U32,
                b(Value::U32(u32::MAX)),
                b(Value::U32(1))
            ),
            0,
            "unsigned comparison"
        );
        assert_eq!(
            cmp_op(
                COp::Le,
                ScalarType::F64,
                b(Value::F64(1.0)),
                b(Value::F64(1.0))
            ),
            1
        );
        let nan = b(Value::F32(f32::NAN));
        assert_eq!(cmp_op(COp::Eq, ScalarType::F32, nan, nan), 0);
        assert_eq!(cmp_op(COp::Ne, ScalarType::F32, nan, nan), 1);
        assert_eq!(cmp_op(COp::Lt, ScalarType::F32, nan, b(Value::F32(1.0))), 0);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(un_op(UOp::Not, ScalarType::Bool, 0), 1);
        assert_eq!(un_op(UOp::Not, ScalarType::Bool, 1), 0);
        let r = un_op(UOp::Neg, ScalarType::I32, b(Value::I32(5)));
        assert_eq!(Value::from_bits(r, ScalarType::I32), Value::I32(-5));
        let r = un_op(UOp::Neg, ScalarType::F64, b(Value::F64(2.0)));
        assert_eq!(Value::from_bits(r, ScalarType::F64), Value::F64(-2.0));
        let r = un_op(UOp::BitNot, ScalarType::U32, b(Value::U32(0)));
        assert_eq!(Value::from_bits(r, ScalarType::U32), Value::U32(u32::MAX));
    }

    #[test]
    fn casts() {
        let r = cast_bits(b(Value::F64(3.9)), ScalarType::F64, ScalarType::I32);
        assert_eq!(
            Value::from_bits(r, ScalarType::I32),
            Value::I32(3),
            "truncation"
        );
        let r = cast_bits(b(Value::F64(-3.9)), ScalarType::F64, ScalarType::I32);
        assert_eq!(Value::from_bits(r, ScalarType::I32), Value::I32(-3));
        let r = cast_bits(b(Value::I32(-1)), ScalarType::I32, ScalarType::U32);
        assert_eq!(Value::from_bits(r, ScalarType::U32), Value::U32(u32::MAX));
        let r = cast_bits(b(Value::I32(7)), ScalarType::I32, ScalarType::F32);
        assert_eq!(Value::from_bits(r, ScalarType::F32), Value::F32(7.0));
        let r = cast_bits(b(Value::U64(u64::MAX)), ScalarType::U64, ScalarType::F64);
        assert_eq!(
            Value::from_bits(r, ScalarType::F64),
            Value::F64(u64::MAX as f64)
        );
        let r = cast_bits(b(Value::I32(300)), ScalarType::I32, ScalarType::U8);
        assert_eq!(Value::from_bits(r, ScalarType::U8), Value::U8(44));
        let r = cast_bits(b(Value::F32(2.5)), ScalarType::F32, ScalarType::F64);
        assert_eq!(Value::from_bits(r, ScalarType::F64), Value::F64(2.5));
    }

    #[test]
    fn math_builtins_respect_precision() {
        let r = math1(f64::sqrt, ScalarType::F32, b(Value::F32(2.0)));
        assert_eq!(
            Value::from_bits(r, ScalarType::F32),
            Value::F32(2.0f32.sqrt())
        );
        let r = math2(
            |x, y| x.powf(y),
            ScalarType::F64,
            b(Value::F64(2.0)),
            b(Value::F64(10.0)),
        );
        assert_eq!(Value::from_bits(r, ScalarType::F64), Value::F64(1024.0));
        let r = math3(
            |x, y, z| x * y + z,
            ScalarType::F32,
            b(Value::F32(2.0)),
            b(Value::F32(3.0)),
            b(Value::F32(4.0)),
        );
        assert_eq!(Value::from_bits(r, ScalarType::F32), Value::F32(10.0));
    }
}
