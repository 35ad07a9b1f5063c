//! Property-based tests for the SPMD runtime: collectives must agree with
//! their sequential definitions for any rank count and payload.

use parapre_mpisim::Universe;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_sum_matches_reference(
        vals in proptest::collection::vec(-100.0f64..100.0, 1..9),
    ) {
        let p = vals.len();
        let expect: f64 = vals.iter().sum();
        let vals_ref = &vals;
        let out = Universe::run(p, move |c| c.allreduce_sum(vals_ref[c.rank()], 1));
        for v in out {
            // Tree summation reassociates; tolerance is tight anyway.
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn allreduce_vec_elementwise_sum(
        p in 1usize..7,
        len in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mk = move |rank: usize, i: usize| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((rank * 1000 + i) as u64);
            ((h >> 20) as f64 / (1u64 << 40) as f64) - 4.0
        };
        let out = Universe::run(p, move |c| {
            let mut x: Vec<f64> = (0..len).map(|i| mk(c.rank(), i)).collect();
            c.allreduce_sum_vec(&mut x, 2);
            x
        });
        for i in 0..len {
            let expect: f64 = (0..p).map(|r| mk(r, i)).sum();
            for rank_out in &out {
                prop_assert!((rank_out[i] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gather_preserves_rank_order(p in 1usize..8, root in 0usize..8) {
        let root = root % p;
        let out = Universe::run(p, move |c| {
            c.gather_vec(root, &[c.rank() as f64 * 2.0], 3)
        });
        for (r, o) in out.iter().enumerate() {
            if r == root {
                let flat = o.as_ref().unwrap();
                let expect: Vec<f64> = (0..p).map(|q| q as f64 * 2.0).collect();
                prop_assert_eq!(flat, &expect);
            } else {
                prop_assert!(o.is_none());
            }
        }
    }

    #[test]
    fn bcast_delivers_root_payload(p in 1usize..9, len in 1usize..16, seed in any::<u32>()) {
        let payload: Vec<f64> = (0..len).map(|i| (seed as f64 + i as f64).sin()).collect();
        let payload_ref = &payload;
        let out = Universe::run(p, move |c| {
            let mut x = if c.rank() == 0 { payload_ref.clone() } else { vec![0.0; len] };
            c.bcast_vec_from_zero(&mut x, 4);
            x
        });
        for o in out {
            prop_assert_eq!(&o, payload_ref);
        }
    }

    #[test]
    fn ring_pass_accumulates(p in 2usize..8) {
        // Each rank adds its id and forwards; final value = sum 0..p-1.
        let out = Universe::run(p, move |c| {
            let me = c.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            if me == 0 {
                c.send(next, 9, vec![0.0]);
                let v = c.recv(prev, 9);
                v[0] + me as f64
            } else {
                let v = c.recv(prev, 9);
                let acc = v[0] + me as f64;
                c.send(next, 9, vec![acc]);
                acc
            }
        });
        let total = (p * (p - 1)) as f64 / 2.0;
        prop_assert_eq!(out[0], total);
    }
}
