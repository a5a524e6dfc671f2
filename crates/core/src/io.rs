//! Plain-text instance serialization.
//!
//! A [`ProblemInstance`] round-trips through a simple sectioned
//! tab-separated format, so workloads can be generated once, archived,
//! and replayed across runs/machines (the experiments' CSV outputs
//! cover *results*; this covers *inputs*):
//!
//! ```text
//! #muaa-instance v1
//! [meta]
//! tags\t<w>
//! [ad_types]
//! <name>\t<cost_cents>\t<effectiveness>
//! [customers]
//! <x>\t<y>\t<capacity>\t<view_prob>\t<arrival_hours>\t<s1,s2,…,sw>
//! [vendors]
//! <x>\t<y>\t<radius>\t<budget_cents>\t<s1,s2,…,sw>
//! ```
//!
//! Lines starting with `#` (other than the magic header) and blank
//! lines are ignored. Floats are written with `{:?}`-style shortest
//! round-trip formatting, so read-back is bit-exact.

use crate::activity::Timestamp;
use crate::entities::{AdType, Customer, Vendor};
use crate::geo::Point;
use crate::instance::{InstanceBuilder, ProblemInstance};
use crate::money::Money;
use crate::tags::TagVector;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Magic first line of the format.
pub const MAGIC: &str = "#muaa-instance v1";

/// Errors raised while reading an instance file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file did not start with [`MAGIC`].
    BadMagic,
    /// A structural or parse failure at a specific line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The parsed data failed instance validation.
    Invalid(crate::error::CoreError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::BadMagic => write!(f, "not a muaa instance file (missing {MAGIC:?})"),
            IoError::Parse { line, reason } => write!(f, "parse error at line {line}: {reason}"),
            IoError::Invalid(e) => write!(f, "invalid instance: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Serialize `instance` to `out`.
pub fn write_instance(instance: &ProblemInstance, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{MAGIC}")?;
    writeln!(out, "[meta]")?;
    writeln!(out, "tags\t{}", instance.tag_universe())?;

    writeln!(out, "[ad_types]")?;
    for t in instance.ad_types() {
        writeln!(
            out,
            "{}\t{}\t{:?}",
            t.name.replace(['\t', '\n'], " "),
            t.cost.as_cents(),
            t.effectiveness
        )?;
    }

    writeln!(out, "[customers]")?;
    for c in instance.customers() {
        writeln!(
            out,
            "{:?}\t{:?}\t{}\t{:?}\t{:?}\t{}",
            c.location.x,
            c.location.y,
            c.capacity,
            c.view_probability,
            c.arrival.hours(),
            join_scores(&c.interests),
        )?;
    }

    writeln!(out, "[vendors]")?;
    for v in instance.vendors() {
        writeln!(
            out,
            "{:?}\t{:?}\t{:?}\t{}\t{}",
            v.location.x,
            v.location.y,
            v.radius,
            v.budget.as_cents(),
            join_scores(&v.tags),
        )?;
    }
    Ok(())
}

/// Serialize to an in-memory string.
pub fn to_string(instance: &ProblemInstance) -> String {
    let mut buf = Vec::new();
    #[expect(clippy::expect_used, reason = "writing into a Vec is infallible")]
    write_instance(instance, &mut buf).expect("writing to a Vec cannot fail");
    #[expect(clippy::expect_used, reason = "the serializer emits ASCII only")]
    String::from_utf8(buf).expect("format is ASCII/UTF-8")
}

fn join_scores(v: &TagVector) -> String {
    v.as_slice()
        .iter()
        .map(|s| format!("{s:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Meta,
    AdTypes,
    Customers,
    Vendors,
}

/// Deserialize an instance from `input`.
pub fn read_instance(input: &mut dyn BufRead) -> Result<ProblemInstance, IoError> {
    let mut lines = input.lines();
    let first = lines.next().transpose()?.ok_or(IoError::BadMagic)?;
    if first.trim() != MAGIC {
        return Err(IoError::BadMagic);
    }

    let mut section = Section::None;
    let mut tags: Option<usize> = None;
    let mut builder = InstanceBuilder::new();

    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[meta]" => {
                section = Section::Meta;
                continue;
            }
            "[ad_types]" => {
                section = Section::AdTypes;
                continue;
            }
            "[customers]" => {
                section = Section::Customers;
                continue;
            }
            "[vendors]" => {
                section = Section::Vendors;
                continue;
            }
            _ => {}
        }
        let parse_err = |reason: String| IoError::Parse {
            line: line_no,
            reason,
        };
        let fields: Vec<&str> = line.split('\t').collect();
        match section {
            Section::None => {
                return Err(parse_err("content before any [section]".into()));
            }
            Section::Meta => {
                if fields.len() == 2 && fields[0] == "tags" {
                    tags = Some(
                        fields[1]
                            .parse()
                            .map_err(|e| parse_err(format!("bad tag count: {e}")))?,
                    );
                } else {
                    return Err(parse_err(format!("unknown meta entry {:?}", fields[0])));
                }
            }
            Section::AdTypes => {
                if fields.len() != 3 {
                    return Err(parse_err(format!(
                        "expected 3 fields, got {}",
                        fields.len()
                    )));
                }
                let cost: u64 = fields[1]
                    .parse()
                    .map_err(|e| parse_err(format!("bad cost: {e}")))?;
                let eff: f64 = fields[2]
                    .parse()
                    .map_err(|e| parse_err(format!("bad effectiveness: {e}")))?;
                builder = builder.ad_type(AdType::new(fields[0], Money::from_cents(cost), eff));
            }
            Section::Customers => {
                if fields.len() != 6 {
                    return Err(parse_err(format!(
                        "expected 6 fields, got {}",
                        fields.len()
                    )));
                }
                let f = parse_floats(&fields[..2], line_no)?;
                let capacity: u32 = fields[2]
                    .parse()
                    .map_err(|e| parse_err(format!("bad capacity: {e}")))?;
                let view: f64 = fields[3]
                    .parse()
                    .map_err(|e| parse_err(format!("bad view probability: {e}")))?;
                let arrival: f64 = fields[4]
                    .parse()
                    .map_err(|e| parse_err(format!("bad arrival: {e}")))?;
                let scores = parse_scores(fields[5], tags, line_no)?;
                builder = builder.customer(Customer {
                    location: Point::new(f[0], f[1]),
                    capacity,
                    view_probability: view,
                    interests: scores,
                    arrival: Timestamp::from_hours(arrival),
                });
            }
            Section::Vendors => {
                if fields.len() != 5 {
                    return Err(parse_err(format!(
                        "expected 5 fields, got {}",
                        fields.len()
                    )));
                }
                let f = parse_floats(&fields[..3], line_no)?;
                let budget: u64 = fields[3]
                    .parse()
                    .map_err(|e| parse_err(format!("bad budget: {e}")))?;
                let scores = parse_scores(fields[4], tags, line_no)?;
                builder = builder.vendor(Vendor {
                    location: Point::new(f[0], f[1]),
                    radius: f[2],
                    budget: Money::from_cents(budget),
                    tags: scores,
                });
            }
        }
    }
    builder.build().map_err(IoError::Invalid)
}

/// Deserialize from an in-memory string.
pub fn from_str(data: &str) -> Result<ProblemInstance, IoError> {
    read_instance(&mut data.as_bytes())
}

fn parse_floats(fields: &[&str], line: usize) -> Result<Vec<f64>, IoError> {
    fields
        .iter()
        .map(|s| {
            s.parse::<f64>().map_err(|e| IoError::Parse {
                line,
                reason: format!("bad float {s:?}: {e}"),
            })
        })
        .collect()
}

fn parse_scores(field: &str, tags: Option<usize>, line: usize) -> Result<TagVector, IoError> {
    let scores: Vec<f64> = if field.is_empty() {
        Vec::new()
    } else {
        field
            .split(',')
            .map(|s| {
                s.parse::<f64>().map_err(|e| IoError::Parse {
                    line,
                    reason: format!("bad tag score {s:?}: {e}"),
                })
            })
            .collect::<Result<_, _>>()?
    };
    if let Some(expected) = tags {
        if scores.len() != expected {
            return Err(IoError::Parse {
                line,
                reason: format!("expected {expected} tag scores, got {}", scores.len()),
            });
        }
    }
    TagVector::new(scores).map_err(|e| IoError::Parse {
        line,
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AdTypeId, CustomerId, VendorId};

    fn sample() -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("Text Link", Money::from_dollars(1.0), 0.1),
                AdType::new("Photo Link", Money::from_dollars(2.0), 0.4),
            ])
            .customer(Customer {
                location: Point::new(0.123456789, 0.5),
                capacity: 2,
                view_probability: 0.3,
                interests: TagVector::new(vec![0.25, 1.0, 0.0]).unwrap(),
                arrival: Timestamp::from_hours(17.25),
            })
            .vendor(Vendor {
                location: Point::new(0.9, 0.1),
                radius: 0.05,
                budget: Money::from_cents(12345),
                tags: TagVector::new(vec![1.0, 0.5, 0.0]).unwrap(),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_is_exact() {
        let inst = sample();
        let text = to_string(&inst);
        let back = from_str(&text).unwrap();
        assert_eq!(back.num_customers(), 1);
        assert_eq!(back.num_vendors(), 1);
        assert_eq!(back.num_ad_types(), 2);
        assert_eq!(back.tag_universe(), 3);
        let c0 = back.customer(CustomerId::new(0));
        let orig = inst.customer(CustomerId::new(0));
        assert_eq!(c0.location, orig.location);
        assert_eq!(c0.capacity, orig.capacity);
        assert_eq!(c0.view_probability, orig.view_probability);
        assert_eq!(c0.arrival.hours(), orig.arrival.hours());
        assert_eq!(c0.interests, orig.interests);
        let v0 = back.vendor(VendorId::new(0));
        assert_eq!(v0.budget, Money::from_cents(12345));
        assert_eq!(v0.radius, 0.05);
        assert_eq!(back.ad_type(AdTypeId::new(1)).name, "Photo Link");
    }

    #[test]
    fn rejects_missing_magic() {
        assert!(matches!(
            from_str("[meta]\ntags\t3\n"),
            Err(IoError::BadMagic)
        ));
        assert!(matches!(from_str(""), Err(IoError::BadMagic)));
    }

    #[test]
    fn rejects_malformed_lines_with_location() {
        let text = format!("{MAGIC}\n[ad_types]\nTL\tnot-a-number\t0.1\n");
        match from_str(&text) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_field_counts() {
        let text = format!("{MAGIC}\n[customers]\n0.5\t0.5\t2\n");
        assert!(matches!(from_str(&text), Err(IoError::Parse { .. })));
    }

    #[test]
    fn rejects_tag_count_mismatch() {
        let text = format!(
            "{MAGIC}\n[meta]\ntags\t3\n[ad_types]\nTL\t100\t0.1\n[customers]\n0.5\t0.5\t2\t0.3\t0.0\t0.5,0.5\n"
        );
        match from_str(&text) {
            Err(IoError::Parse { reason, .. }) => assert!(reason.contains("expected 3")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_content_before_sections() {
        let text = format!("{MAGIC}\nstray\tline\n");
        assert!(matches!(from_str(&text), Err(IoError::Parse { .. })));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!(
            "{MAGIC}\n\n# a comment\n[ad_types]\nTL\t100\t0.1\n\n[customers]\n# none\n[vendors]\n"
        );
        let inst = from_str(&text).unwrap();
        assert_eq!(inst.num_ad_types(), 1);
        assert_eq!(inst.num_customers(), 0);
    }

    #[test]
    fn invalid_instances_are_caught_at_build() {
        // Zero-cost ad type parses but fails validation.
        let text = format!("{MAGIC}\n[ad_types]\nFree\t0\t0.1\n");
        assert!(matches!(from_str(&text), Err(IoError::Invalid(_))));
    }

    /// One random edit of a serialized instance: truncate, delete or
    /// duplicate a line, overwrite a byte with a delimiter, sign,
    /// exponent or digit, or insert `nan`/`inf`. Keeps the text ASCII.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut crate::rng::DetRng) {
        let pick = |rng: &mut crate::rng::DetRng, n: usize| rng.gen_range_usize(n.max(1));
        match rng.gen_range_usize(5) {
            0 => bytes.truncate(pick(rng, bytes.len() + 1)),
            op @ (1 | 2) => {
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(
                        (0..bytes.len())
                            .filter(|&i| bytes[i] == b'\n')
                            .map(|i| i + 1),
                    )
                    .filter(|&i| i < bytes.len())
                    .collect();
                if starts.is_empty() {
                    return;
                }
                let s = starts[pick(rng, starts.len())];
                let e = bytes[s..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| s + p + 1);
                if op == 1 {
                    bytes.drain(s..e);
                } else {
                    let line = bytes[s..e].to_vec();
                    bytes.splice(e..e, line);
                }
            }
            3 => {
                if !bytes.is_empty() {
                    let i = pick(rng, bytes.len());
                    bytes[i] = match rng.gen_range_usize(6) {
                        0 => b'\t',
                        1 => b',',
                        2 => b'\n',
                        3 => b'-',
                        4 => b'e',
                        _ => b'0' + rng.gen_range_usize(10) as u8,
                    };
                }
            }
            _ => {
                let i = pick(rng, bytes.len() + 1);
                let token: &[u8] = if rng.gen_bool(0.5) { b"nan" } else { b"inf" };
                bytes.splice(i..i, token.iter().copied());
            }
        }
    }

    #[test]
    fn mutated_input_never_panics_and_accepted_input_reserializes_to_a_fixed_point() {
        let base = to_string(&sample()).into_bytes();
        let mut rng = crate::rng::DetRng::seed_from_u64(2019);
        let mut accepted = 0;
        for case in 0..4000 {
            let mut bytes = base.clone();
            for _ in 0..1 + rng.gen_range_usize(3) {
                mutate(&mut bytes, &mut rng);
            }
            let text = String::from_utf8(bytes).expect("edits keep the text ASCII");
            let parsed = std::panic::catch_unwind(|| from_str(&text))
                .unwrap_or_else(|_| panic!("case {case}: reader panicked on {text:?}"));
            if let Ok(inst) = parsed {
                accepted += 1;
                let once = to_string(&inst);
                let again = from_str(&once)
                    .unwrap_or_else(|e| panic!("case {case}: re-read of {once:?} failed: {e}"));
                assert_eq!(
                    once,
                    to_string(&again),
                    "case {case}: no fixed point for {text:?}"
                );
            }
        }
        // Both outcomes must be exercised for the check to mean anything.
        assert!(
            0 < accepted && accepted < 4000,
            "accepted {accepted} of 4000"
        );
    }

    #[test]
    fn tabs_in_names_are_sanitised_on_write() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("weird\tname", Money::from_cents(100), 0.1))
            .build()
            .unwrap();
        let text = to_string(&inst);
        let back = from_str(&text).unwrap();
        assert_eq!(back.ad_type(AdTypeId::new(0)).name, "weird name");
    }
}
