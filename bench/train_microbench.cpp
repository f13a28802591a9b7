// NN training microbench: per-layer kernel latency and end-to-end
// client-round throughput for the MLP / CNN / RNN workloads, on both GEMM
// backends (tiled vs the plain-loop reference — the pre-GEMM scalar
// path). Emits machine-readable JSON (default BENCH_train.json) for the
// bench trajectory and CI artifact upload.
//
// Usage:
//   ./train_microbench [--json=BENCH_train.json] [--min-ms=80]
//                      [--assert-cnn-speedup=1.2]
//                      [--assert-gram-shape-speedup=4]
//
// --assert-cnn-speedup makes the binary exit non-zero unless the tiled
// backend beats the reference backend on CNN end-to-end client-round
// throughput by at least the given factor — CI uses it as a smoke guard
// against a silent fallback to the reference loops.
// --assert-gram-shape-speedup is the same floor on the tall-k Gram shape
// (gemm_shapes row gram_nt_64x100x18706), which only a k-blocked tiled
// path runs at speed.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/client.h"
#include "fl/experiment.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/rnn.h"
#include "nn/workspace.h"

namespace signguard {
namespace {

// Warm up once (first-touch allocation, cache fill), then keep the
// fastest batch-of-8 average.
obs::StopwatchReporter timer(80.0, /*warmup=*/1, /*batch=*/8);

// rate: runs/s, GFLOP/s for group=gemm, the speedup for group=speedup.
bench::Report report("signguard/train_microbench/v1",
                     {"group", "name", "backend", "usec", "rate"},
                     common::thread_count());

const char* backend_name(nn::GemmBackend backend) {
  return backend == nn::GemmBackend::kTiled ? "tiled" : "ref";
}

void record(const std::string& group, const std::string& name,
            nn::GemmBackend backend, double usec) {
  report.row(group, name, backend_name(backend), usec, 1e6 / usec);
}

void bench_layer(const std::string& name, nn::Layer& layer,
                 const nn::Tensor& x) {
  nn::Workspace ws;
  nn::Tensor y, gy, gx;
  for (const auto backend :
       {nn::GemmBackend::kReference, nn::GemmBackend::kTiled}) {
    nn::set_gemm_backend(backend);
    ws.begin_pass();
    layer.forward(x, y, ws);
    gy.resize(y.shape());
    for (std::size_t i = 0; i < gy.numel(); ++i)
      gy[i] = float(i % 7) * 0.1f - 0.3f;
    record("layer", name + "_fwd", backend, timer.time_usec([&] {
             ws.begin_pass();
             layer.forward(x, y, ws);
           }));
    // Rewind the scratch cursor each iteration so repeated backwards
    // replay onto the same workspace slots instead of growing the arena
    // (which would fold allocation cost into the timing).
    const std::size_t after_fwd = ws.mark();
    record("layer", name + "_bwd", backend, timer.time_usec([&] {
             ws.rewind(after_fwd);
             layer.zero_grad();
             layer.backward(gy, gx, ws);
           }));
  }
}

void bench_layers() {
  Rng rng(1);
  {
    nn::Linear lin(256, 128, rng);
    nn::Tensor x({32, 256});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("linear_32x256x128", lin, x);
  }
  {
    nn::Conv2d conv(6, 12, rng);
    nn::Tensor x({8, 6, 16, 16});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("conv_8x6x16x16_oc12", conv, x);
  }
  {
    nn::RnnTanh rnn(16, 32, rng, nn::RnnOutput::kMeanPool);
    nn::Tensor x({8, 16, 16});
    for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
    bench_layer("rnn_8x16_e16_h32", rnn, x);
  }
}

void bench_gemm() {
  Rng rng(2);
  for (const std::size_t d : {128ul, 256ul}) {
    const std::vector<float> a = rng.normal_vector(d * d);
    const std::vector<float> b = rng.normal_vector(d * d);
    std::vector<float> c(d * d, 0.0f);
    for (const auto backend :
         {nn::GemmBackend::kReference, nn::GemmBackend::kTiled}) {
      nn::set_gemm_backend(backend);
      const double usec = timer.time_usec([&] {
        nn::gemm_nn(d, d, d, a.data(), d, b.data(), d, c.data(), d, false);
      });
      report.row("gemm", "gemm_nn_" + std::to_string(d), backend_name(backend),
                 usec, 2.0 * double(d) * d * d / (usec * 1e-6) / 1e9);
    }
  }
}

// The products one round issues, by orientation and (m, n, k): the paper
// CNN's per-sample conv GEMMs (16x16 input, 6 then 12 channels; conv1 is
// the first layer, so it has no input gradient), the grid MLP's Linear
// forward at batch 8, and one 64-row block of bulyan-int8's pairwise Gram
// (n=100, d=18,706). rate is GFLOP/s. Returns the tiled speedup on the
// Gram shape.
double bench_gemm_shapes() {
  struct Shape {
    const char* name;
    char kind;  // 'n': gemm_nn, 't': gemm_nt, 'a': gemm_tn
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {"conv1_fwd_nn_6x256x9", 'n', 6, 256, 9},
      {"conv1_wgrad_nt_6x9x256", 't', 6, 9, 256},
      {"conv2_fwd_nn_12x64x54", 'n', 12, 64, 54},
      {"conv2_wgrad_nt_12x54x64", 't', 12, 54, 64},
      {"conv2_dx_tn_54x64x12", 'a', 54, 64, 12},
      {"linear_fwd_nt_8x128x256", 't', 8, 128, 256},
      {"gram_nt_64x100x18706", 't', 64, 100, 18706},
  };
  Rng rng(3);
  double gram_speedup = 0.0;
  for (const Shape& s : shapes) {
    // Every orientation reads m*k floats of A and k*n of B; only the
    // leading dimensions differ.
    const std::vector<float> a = rng.normal_vector(s.m * s.k);
    const std::vector<float> b = rng.normal_vector(s.k * s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    double usec[2] = {};
    for (const auto backend :
         {nn::GemmBackend::kReference, nn::GemmBackend::kTiled}) {
      nn::set_gemm_backend(backend);
      const double t = timer.time_usec([&] {
        switch (s.kind) {
          case 'n':
            nn::gemm_nn(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c.data(),
                        s.n, false);
            break;
          case 't':
            nn::gemm_nt(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, c.data(),
                        s.n, false);
            break;
          default:
            nn::gemm_tn(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, c.data(),
                        s.n, false);
        }
      });
      usec[backend == nn::GemmBackend::kTiled] = t;
      report.row("gemm_shapes", s.name, backend_name(backend), t,
                 2.0 * double(s.m) * s.n * s.k / (t * 1e-6) / 1e9);
    }
    if (s.k > 1000) {
      gram_speedup = usec[0] / usec[1];
      report.row("speedup", s.name, "tiled_vs_ref", usec[1], gram_speedup);
    }
  }
  return gram_speedup;
}

// End-to-end: one client-round = sample a batch, forward, loss, backward,
// flatten the gradient — exactly fl::Client::compute_gradient_into.
double bench_client_round(fl::Workload& w, nn::GemmBackend backend) {
  nn::set_gemm_backend(backend);
  nn::Model model = w.model_factory(13);
  std::vector<std::size_t> shard(w.data.train.size());
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Client client(&w.data.train, std::move(shard), 17);
  std::vector<float> grad(model.parameter_count());
  const double usec = timer.time_usec([&] {
    client.compute_gradient_into(grad, model, w.config.batch_size,
                                 w.config.weight_decay, false);
  });
  return usec;
}

double bench_workload(const std::string& name, fl::WorkloadKind kind,
                      fl::ModelProfile profile) {
  fl::Workload w = fl::make_workload(kind, profile, fl::Scale::kSmoke);
  const double ref_usec = bench_client_round(w, nn::GemmBackend::kReference);
  record("client_round", name, nn::GemmBackend::kReference, ref_usec);
  const double tiled_usec = bench_client_round(w, nn::GemmBackend::kTiled);
  record("client_round", name, nn::GemmBackend::kTiled, tiled_usec);
  const double speedup = ref_usec / tiled_usec;
  report.row("speedup", name, "tiled_vs_ref", tiled_usec, speedup);
  return speedup;
}

}  // namespace
}  // namespace signguard

int main(int argc, char** argv) {
  using namespace signguard;
  bench::banner("train_microbench", fl::scale_from_env());
  bench::Gates gates(argc, argv,
                     {{"cnn-speedup", bench::Bound::kFloor,
                       "tiled CNN client-round speedup: the GEMM path "
                       "regressed or silently fell back"},
                      {"gram-shape-speedup", bench::Bound::kFloor,
                       "tiled tall-k Gram speedup: k-blocking or the "
                       "register tile regressed"}});
  timer.set_min_ms(bench::number_arg(argc, argv, "min-ms", 80));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_train.json");

  bench_gemm();
  const double gram = bench_gemm_shapes();
  bench_layers();
  const double mlp = bench_workload("mlp", fl::WorkloadKind::kMnistLike,
                                    fl::ModelProfile::kGrid);
  const double cnn = bench_workload("cnn", fl::WorkloadKind::kMnistLike,
                                    fl::ModelProfile::kPaper);
  const double rnn = bench_workload("rnn", fl::WorkloadKind::kAgNewsLike,
                                    fl::ModelProfile::kPaper);
  std::printf("\nend-to-end client-round speedups: mlp %.2fx  cnn %.2fx  "
              "rnn %.2fx\n",
              mlp, cnn, rnn);
  gates.measure("cnn-speedup", cnn);
  gates.measure("gram-shape-speedup", gram);
  return bench::finish(report, json_path, gates);
}
