//! Table 2 reproduction: per-mechanism attacker restrictions, measured.
//!
//! The paper's Table 2 is qualitative; here every cell is *measured* by a
//! probe program + corruption:
//!
//! * **pointer corruption, same RSTI-type** — substituting two pointers
//!   that share an RSTI-type succeeds under STC/STWC (the residual
//!   equivalence-class risk the paper discusses in §7) but fails under
//!   STL, whose modifier includes the slot address;
//! * **pointer corruption, different RSTI-type** — detected by every RSTI
//!   mechanism; the PARTS baseline misses it when the basic types match;
//! * **spatial violation** — a buffer overflow writing attacker bytes over
//!   an adjacent pointer is detected by every PA scheme (the bytes carry
//!   no valid PAC);
//! * **temporal violation** — replaying a dangling (freed) pointer into a
//!   slot of a different RSTI-type is detected; reuse within the same
//!   RSTI-type is the residual risk for STC/STWC.

use crate::harness::{compile_victim, render_grid, run_matrix, Corruption, Verdict, Victim};
use rsti_vm::Vm;

/// A Table 2 probe.
pub struct Probe {
    /// Row id.
    pub id: &'static str,
    /// What the probe measures.
    pub description: &'static str,
    source: &'static str,
    pause_at: &'static str,
    corrupt: fn(&mut Vm) -> Result<(), String>,
}

impl<'a> Victim<'a> {
    /// Compiles a Table 2 probe. A probe has no payload: whether its
    /// corruption went unnoticed is read off the run's status.
    pub fn probe(p: &'a Probe) -> Self {
        Victim {
            id: p.id,
            module: compile_victim(p.source, p.id),
            pause_at: p.pause_at,
            corrupt: Box::new(p.corrupt),
            payload_check: |_| false,
        }
    }
}

/// Table 2's cell label for a probe verdict: a run that survives its
/// corruption is an undetected one.
pub fn table2_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::PayloadExecuted | Verdict::Survived => "UNDETECTED",
        Verdict::Detected(_) => "detected",
        Verdict::Crashed(_) => "crashed",
        Verdict::Inconclusive(_) => "??",
    }
}

/// Substitution of two pointers sharing one RSTI-type (same type, same
/// scope, same permission): the residual equivalence-class risk.
pub fn probe_same_class() -> Probe {
    Probe {
        id: "subst-same-rsti-type",
        description: "substitute two pointers with identical scope-type facts",
        source: r#"
            struct item { long v; };
            struct item* a;
            struct item* b;
            long consume() {
                return a->v + b->v;
            }
            int main() {
                a = (struct item*) malloc(sizeof(struct item));
                b = (struct item*) malloc(sizeof(struct item));
                a->v = 1;
                b->v = 2;
                long r = consume();
                return (int) r;
            }
        "#,
        pause_at: "consume",
        corrupt: |vm| {
            // Copy b's (signed) pointer over a's slot.
            let src = |vm: &Vm| vm.global_addr("b");
            let dest = |vm: &Vm| vm.global_addr("a");
            Corruption::Replay { src, dest }.apply(vm)
        },
    }
}

/// Substitution across different RSTI-types of the *same basic type*:
/// RSTI's scope separation catches it, a type-only modifier cannot.
pub fn probe_diff_class() -> Probe {
    Probe {
        id: "subst-diff-rsti-type",
        description: "substitute same-basic-type pointers from different scopes",
        source: r#"
            struct item { long v; };
            struct item* frontend_item;
            struct item* backend_item;
            void frontend_init() {
                frontend_item = (struct item*) malloc(sizeof(struct item));
                frontend_item->v = 1;
            }
            void backend_init() {
                backend_item = (struct item*) malloc(sizeof(struct item));
                backend_item->v = 1000;
            }
            long frontend_read() {
                return frontend_item->v;
            }
            int main() {
                frontend_init();
                backend_init();
                long r = frontend_read();
                return (int) r;
            }
        "#,
        pause_at: "frontend_read",
        corrupt: |vm| {
            let src = |vm: &Vm| vm.global_addr("backend_item");
            let dest = |vm: &Vm| vm.global_addr("frontend_item");
            Corruption::Replay { src, dest }.apply(vm)
        },
    }
}

/// Spatial violation: overflow attacker bytes over an adjacent heap
/// pointer.
pub fn probe_spatial() -> Probe {
    Probe {
        id: "spatial-overflow",
        description: "buffer overflow writes raw bytes over an adjacent pointer",
        source: r#"
            struct box { long pad; long* payload; };
            struct box* g_box;
            long* g_secret;
            long unbox() {
                return *(g_box->payload);
            }
            int main() {
                g_secret = (long*) malloc(8);
                *g_secret = 77;
                g_box = (struct box*) malloc(sizeof(struct box));
                g_box->payload = g_secret;
                long r = unbox();
                return (int) r;
            }
        "#,
        pause_at: "unbox",
        corrupt: |vm| {
            // The overflow plants a raw (unsigned) pointer to the secret.
            let dest = |vm: &Vm| Some(vm.heap_live().get(1)?.0 + 8);
            let value = |vm: &Vm| Some(vm.heap_live().first()?.0);
            Corruption::RawWrite { dest, value }.apply(vm)
        },
    }
}

/// Temporal violation: a dangling pointer (to freed memory) is replayed
/// into a slot of a *different* RSTI-type.
pub fn probe_temporal() -> Probe {
    Probe {
        id: "temporal-dangling-replay",
        description: "replay a dangling freed pointer into a different-scope slot",
        source: r#"
            struct sess { long id; };
            struct sess* stale;
            struct sess* active;
            void session_setup() {
                stale = (struct sess*) malloc(sizeof(struct sess));
                stale->id = 13;
                free(stale);
                active = (struct sess*) malloc(sizeof(struct sess));
                active->id = 1;
            }
            long serve() {
                return active->id;
            }
            int main() {
                session_setup();
                long r = serve();
                return (int) r;
            }
        "#,
        pause_at: "serve",
        corrupt: |vm| {
            let src = |vm: &Vm| vm.global_addr("stale");
            let dest = |vm: &Vm| vm.global_addr("active");
            Corruption::Replay { src, dest }.apply(vm)
        },
    }
}

/// All probes, in Table 2 row order (plus the self-inflicted-overflow
/// row, which extends the paper's spatial-safety discussion with the
/// program's own buggy copy loop).
pub fn all_probes() -> Vec<Probe> {
    vec![
        probe_same_class(),
        probe_diff_class(),
        probe_spatial(),
        probe_temporal(),
        probe_self_inflicted_overflow(),
    ]
}

/// Renders the Table 2 report.
pub fn render_table2() -> String {
    let probes = all_probes();
    let victims: Vec<Victim> = probes.iter().map(Victim::probe).collect();
    let matrix = run_matrix(&victims);
    let mut out = String::new();
    out.push_str(
        "Table 2 reproduction: attacker restrictions per mechanism (measured)\n\n",
    );
    render_grid(&mut out, "probe", (26, 11), &matrix, table2_label);
    out.push_str(
        "\nReading: STL's location binding removes even same-RSTI-type\n\
         substitution; STC/STWC retain the equivalence-class residual risk\n\
         (paper §7 'Possibility of replay attacks'); type-only PARTS misses\n\
         same-basic-type substitutions entirely.\n",
    );
    out
}

/// The Figure 1 bug shape executed *by the victim itself*: an unsanitized
/// length drives the program's own copy loop across the end of
/// `uncomprbuf` into the adjacent TIFF object. No attacker-API write into
/// the object — the corrupting stores are ordinary `char` stores made by
/// instrumented program code, which carry no PAC; the next load of the
/// clobbered `tif_encoderow` authenticates and traps.
pub fn probe_self_inflicted_overflow() -> Probe {
    Probe {
        id: "self-inflicted-overflow",
        description: "the program's own unsanitized copy loop smashes an adjacent object",
        source: r#"
            struct tiff {
                long tif_scanlinesize;
                void (*tif_encoderow)(struct tiff* t);
            };
            struct tiff* g_out;
            char* g_input;
            char* g_uncomprbuf;
            long g_input_len;
            void default_encoderow(struct tiff* t) {
                t->tif_scanlinesize = t->tif_scanlinesize + 1;
            }
            void decode_strip() {
                // CVE-2015-8668: uncompr_size is not validated against the
                // input length, so the copy runs past the 16-byte buffer
                // into the adjacent TIFF object.
                for (int i = 0; i < g_input_len; i++) {
                    g_uncomprbuf[i] = g_input[i];
                }
                g_out->tif_encoderow(g_out);
            }
            int main() {
                g_input = (char*) malloc(64);
                g_input_len = 8;
                g_uncomprbuf = (char*) malloc(16);
                g_out = (struct tiff*) malloc(sizeof(struct tiff));
                g_out->tif_scanlinesize = 0;
                g_out->tif_encoderow = default_encoderow;
                decode_strip();
                return 0;
            }
        "#,
        pause_at: "decode_strip",
        corrupt: |vm| {
            // The attacker only controls the *input*: oversized length and
            // payload bytes. Heap layout (bump allocator): input(64) |
            // uncomprbuf(16) | tiff(16). Copying 32 bytes into the 16-byte
            // uncomprbuf overlays the whole TIFF object; bytes 24..32 land
            // on tif_encoderow.
            let addrs = vm.heap_live().first().zip(vm.global_addr("g_input_len"));
            let gadget = vm.func_addr("default_encoderow"); // any raw addr
            let ((&(input, _), len_slot), gadget) =
                addrs.zip(gadget).ok_or("corruption addresses did not resolve")?;
            let mut payload = [0u8; 32];
            for c in payload.chunks_exact_mut(8) {
                c.copy_from_slice(&gadget.to_le_bytes());
            }
            vm.attacker_write(input, &payload).map_err(|e| e.to_string())?;
            vm.attacker_write_u64(len_slot, 32).map_err(|e| e.to_string())
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_core::{Mechanism, OptLevel};
    use rsti_vm::ExecBackend;

    /// One unoptimized Table 2 cell, by its label.
    fn cell(p: &Probe, defense: Option<Mechanism>) -> &'static str {
        let v = Victim::probe(p).attack(defense, OptLevel::None, ExecBackend::default(), false);
        table2_label(&v.0)
    }

    #[test]
    fn same_class_substitution_beats_stc_stwc_but_not_stl() {
        let p = probe_same_class();
        assert_eq!(cell(&p, None), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Parts)), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Stc)), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Stwc)), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Stl)), "detected");
    }

    #[test]
    fn diff_class_substitution_caught_by_rsti_missed_by_parts() {
        let p = probe_diff_class();
        assert_eq!(cell(&p, None), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Parts)), "UNDETECTED");
        assert_eq!(cell(&p, Some(Mechanism::Stc)), "detected");
        assert_eq!(cell(&p, Some(Mechanism::Stwc)), "detected");
        assert_eq!(cell(&p, Some(Mechanism::Stl)), "detected");
    }

    #[test]
    fn spatial_overflow_detected_by_all_pac_schemes() {
        let p = probe_spatial();
        assert_eq!(cell(&p, None), "UNDETECTED");
        for mech in Mechanism::ALL {
            assert_eq!(cell(&p, Some(mech)), "detected", "{mech} must detect raw overflow");
        }
    }

    #[test]
    fn self_inflicted_overflow_is_caught_by_rsti_not_baseline() {
        // The overflow writes land through the program's own (instrumented)
        // char stores — raw bytes over a signed pointer field. The baseline
        // run executes the planted address; every RSTI mechanism traps at
        // the next authenticated load.
        let p = probe_self_inflicted_overflow();
        assert_ne!(cell(&p, None), "detected", "no defense, nothing to detect");
        for mech in [Mechanism::Stc, Mechanism::Stwc, Mechanism::Stl] {
            assert_eq!(
                cell(&p, Some(mech)),
                "detected",
                "{mech} must catch the self-inflicted overflow"
            );
        }
    }

    #[test]
    fn temporal_replay_detected_when_classes_differ() {
        let p = probe_temporal();
        assert_eq!(cell(&p, None), "UNDETECTED");
        for mech in [Mechanism::Stc, Mechanism::Stwc, Mechanism::Stl] {
            assert_eq!(cell(&p, Some(mech)), "detected", "{mech} must detect the dangling replay");
        }
    }

    #[test]
    fn a_probe_that_never_reaches_its_pause_is_inconclusive() {
        // `consume` exists but is never called: the run ends before the
        // pause, and the cell says so instead of panicking.
        let p = Probe {
            source: "long consume() { return 1; } int main() { return 0; }",
            ..probe_same_class()
        };
        let (v, _) = Victim::probe(&p).attack(None, OptLevel::None, ExecBackend::default(), false);
        assert!(
            matches!(&v, Verdict::Inconclusive(why) if why.contains("never reached consume")),
            "{v:?}"
        );
        assert_eq!(table2_label(&v), "??");
    }

    #[test]
    fn a_probe_whose_corruption_does_not_resolve_says_why() {
        // No global `b` to replay from: the cell keeps the corruption's
        // own reason, the one a Table 1 cell reports.
        let p = Probe {
            source: "struct item { long v; }; struct item* a; long consume() { return 1; } \
                     int main() { return (int) consume(); }",
            ..probe_same_class()
        };
        let (v, _) = Victim::probe(&p).attack(None, OptLevel::None, ExecBackend::default(), false);
        assert_eq!(v, Verdict::Inconclusive("corruption addresses did not resolve".into()));
    }
}
