//! Standalone calls into single layers at a workload's own shapes:
//! the gradient allreduce, the three GEMM orientations and batch
//! assembly. Each call is also recorded as a span on the probe lane.

use crate::stats::median;
use crate::trace::{timed, Kind, Lane};
use crate::workloads::GemmShape;
use data::stream::{BatchStream, SlabPool};
use data::Dataset;
use distrib::ExchangeDispatch;
use msa_net::{collectives, Arena, Communicator, GradCodec, PointToPoint, ThreadComm};
use std::hint::black_box;
use std::time::Instant;
use tensor::{Rng, Tensor};

const ALLREDUCE_REPS: usize = 15;

/// Median ms of one 2-rank allreduce-mean of `n_params` floats, through
/// the trainer's default dispatch and through the ring baseline.
pub fn allreduce_ms(n_params: usize, lane: &Lane) -> (f64, f64) {
    let per_rank = ThreadComm::run(2, |c| {
        let mut buf: Vec<f32> = (0..n_params).map(|i| (i % 97) as f32 * 1e-3).collect();
        let mut arena = Arena::new();
        let dispatch = ExchangeDispatch::default();
        let rank0 = c.rank() == 0;
        let mut pipeline = Vec::with_capacity(ALLREDUCE_REPS);
        let mut ring = Vec::with_capacity(ALLREDUCE_REPS);
        let rep = |label: &str, f: &mut dyn FnMut()| {
            c.barrier();
            let t = Instant::now();
            if rank0 {
                timed(lane, Kind::Probe, label, 0.0, f);
            } else {
                f();
            }
            t.elapsed().as_secs_f64() * 1e3
        };
        for _ in 0..ALLREDUCE_REPS {
            pipeline.push(rep("allreduce.default", &mut || {
                dispatch.reduce_bucket_codec(c, &mut buf, &mut arena, GradCodec::Dense32, None);
            }));
            // The ring leaves the sum; divide as the default path does.
            ring.push(rep("allreduce.ring", &mut || {
                collectives::ring_allreduce_with(c, &mut buf, &mut arena);
                let n = c.size() as f32;
                for x in buf.iter_mut() {
                    *x /= n;
                }
            }));
        }
        black_box(&buf);
        (median(&pipeline), median(&ring))
    });
    // An allreduce ends when its slower rank does.
    let worst = |f: fn(&(f64, f64)) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);
    (worst(|r| r.0), worst(|r| r.1))
}

/// GFLOP/s of `matmul`, `matmul_tn` and `matmul_nt` at the given shapes.
pub fn gemm_gflops(nn: GemmShape, tn: GemmShape, nt: GemmShape, lane: &Lane) -> [f64; 3] {
    let mut rng = Rng::seed(0x6E44);
    let one =
        |label: &str, a: Tensor, b: Tensor, s: GemmShape, f: fn(&Tensor, &Tensor) -> Tensor| {
            let flops = 2.0 * (s.m * s.k * s.n) as f64;
            let mut times = Vec::new();
            let begin = Instant::now();
            while times.len() < 5 || (begin.elapsed().as_secs_f64() < 0.15 && times.len() < 2000) {
                let t = Instant::now();
                let c = timed(lane, Kind::Probe, label, flops, || {
                    f(black_box(&a), black_box(&b))
                });
                times.push(t.elapsed().as_secs_f64());
                black_box(c);
            }
            flops / median(&times) / 1e9
        };
    let r_nn = {
        let (a, b) = (
            rng.normal_tensor(&[nn.m, nn.k], 1.0),
            rng.normal_tensor(&[nn.k, nn.n], 1.0),
        );
        one("gemm_nn", a, b, nn, tensor::matmul::matmul)
    };
    let r_tn = {
        let (a, b) = (
            rng.normal_tensor(&[tn.k, tn.m], 1.0),
            rng.normal_tensor(&[tn.k, tn.n], 1.0),
        );
        one("gemm_tn", a, b, tn, tensor::matmul::matmul_tn)
    };
    let r_nt = {
        let (a, b) = (
            rng.normal_tensor(&[nt.m, nt.k], 1.0),
            rng.normal_tensor(&[nt.n, nt.k], 1.0),
        );
        one("gemm_nt", a, b, nt, tensor::matmul::matmul_nt)
    };
    [r_nn, r_tn, r_nt]
}

/// Median ms to assemble one batch of rank 0's shard with
/// `BatchStream::next_batch_pooled`, and the batch size in MB.
pub fn batch_assemble(train: &Dataset, batch: usize, seed: u64, lane: &Lane) -> (f64, f64) {
    let shard = train.shard(0, 2);
    let mut rng = Rng::seed(seed);
    let mut pool = SlabPool::new();
    let mut times = Vec::new();
    let mut mb = 0.0;
    for _ in 0..4 {
        let mut stream = BatchStream::new(&shard, batch, &mut rng);
        loop {
            let t = Instant::now();
            let Some(b) = timed(lane, Kind::Probe, "batch_assemble", 0.0, || {
                stream.next_batch_pooled(&mut pool)
            }) else {
                break;
            };
            times.push(t.elapsed().as_secs_f64() * 1e3);
            mb = ((b.0.numel() + b.1.numel()) * size_of::<f32>()) as f64 / 1e6;
            pool.recycle(b);
        }
    }
    (median(&times), mb)
}
