#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <string>

#include "io/serializer.h"
#include "nn/loss.h"
#include "util/random.h"

namespace crowdrl::nn {
namespace {

// Trains y = 2x - 1 with a linear net; returns the final MSE.
double TrainLinear(Optimizer* optimizer, int steps, uint64_t seed) {
  Rng rng(seed);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  Matrix x(16, 1);
  Matrix y(16, 1);
  for (size_t i = 0; i < 16; ++i) {
    double xi = rng.Uniform(-1.0, 1.0);
    x.At(i, 0) = xi;
    y.At(i, 0) = 2.0 * xi - 1.0;
  }
  double loss = 0.0;
  for (int s = 0; s < steps; ++s) {
    Matrix grad;
    loss = MseLoss(net.Forward(x), y, &grad);
    net.Backward(grad);
    optimizer->Step(&net);
  }
  return loss;
}

TEST(SgdTest, ConvergesOnLinearRegression) {
  Sgd sgd(0.3);
  EXPECT_LT(TrainLinear(&sgd, 300, 1), 1e-6);
}

TEST(SgdTest, MomentumConverges) {
  Sgd sgd(0.1, 0.9);
  EXPECT_LT(TrainLinear(&sgd, 300, 2), 1e-6);
}

TEST(AdamTest, ConvergesOnLinearRegression) {
  Adam adam(0.05);
  EXPECT_LT(TrainLinear(&adam, 500, 3), 1e-5);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Rng rng(4);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  // No data gradient, only decay: weights must shrink toward zero.
  Sgd sgd(0.1, 0.0, 0.5);
  double before = std::abs(net.ParamViews()[0].value[0]);
  for (int i = 0; i < 50; ++i) {
    net.ZeroGrad();
    sgd.Step(&net);
  }
  double after = std::abs(net.ParamViews()[0].value[0]);
  EXPECT_LT(after, before * 0.1 + 1e-9);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Rng rng(5);
  Mlp net({2, 2}, {Activation::kIdentity}, &rng);
  Matrix x = Matrix::FromRows({{1.0, 1.0}});
  Matrix t = Matrix::FromRows({{0.0, 0.0}});
  Matrix grad;
  MseLoss(net.Forward(x), t, &grad);
  net.Backward(grad);
  Sgd sgd(0.01);
  sgd.Step(&net);
  for (const ParamView& v : net.ParamViews()) {
    for (size_t i = 0; i < v.size; ++i) {
      EXPECT_DOUBLE_EQ(v.grad[i], 0.0);
    }
  }
}

TEST(OptimizerDeathTest, RebindingToDifferentNetworkAborts) {
  Rng rng(6);
  Mlp small({1, 1}, {Activation::kIdentity}, &rng);
  Mlp big({4, 4}, {Activation::kIdentity}, &rng);
  Sgd sgd(0.1);
  sgd.Step(&small);
  EXPECT_DEATH(sgd.Step(&big), "optimizer bound");
}

TEST(AdamTest, FirstStepHasUnitScaleRegardlessOfGradientMagnitude) {
  // Adam's bias-corrected first update is lr * g / (|g| + eps) — i.e.
  // approximately lr * sign(g) whatever the gradient scale.
  Rng rng(7);
  Mlp net({1, 1}, {Activation::kIdentity}, &rng);
  ParamView view = net.ParamViews()[0];
  double before = view.value[0];
  view.grad[0] = 1234.5;  // Huge gradient.
  Adam adam(0.01);
  adam.Step(&net);
  double after = net.ParamViews()[0].value[0];
  EXPECT_NEAR(before - after, 0.01, 1e-6);
}

// An Adam checkpoint written before the SIMD Adam kernel: the optimizer
// after three steps of this fixed scenario, and the network it trained.
// The checkpoint format of the moment buffers must not change, and the
// kernel must reproduce the scalar loop's moments and parameters.
constexpr char kPreKernelAdamState[] =
    "2700000000000000030000000000000004000000000000001400000000000000"
    "a2c47e120b05723f7100e4cd514e9b3fc024276f9915993f0f6e4784829c833f"
    "8d8795bdd32d83bfa5b47fb4e92e8bbf1b7dfdcfb04eb53f3aade4460b98b73f"
    "3bcf7d68dc76a03f403676bef8278fbf5a0807f062b9453f760f978332e09d3f"
    "c572ebc3db4aaa3f3dfce88c9f9574bf6ac1b300b5408a3fe06de2f91a376abf"
    "a1232e3000ccc53f0429cc820c9fc63f7b30fc9b2098b53fe8750cce20f4b0bf"
    "0400000000000000a74ee5163fd9a33feb3253b3e6a0c13f522070e146ddaf3f"
    "d8b599d7d54bce3f0c00000000000000df8ef5d6a69dbcbfdcae4474c65bc2bf"
    "ce684f78654f77bf9e09dd627f44d4bfc46ea6f91d08babf8a20fe5c54f9c1bf"
    "7f7607eb73cd6cbf22c1b2485b12d2bf1762dbd0ab88b0bf7b5daf520ba095bf"
    "617dbd9360394e3f40a1513cc066c4bf0300000000000000aa2844a461cdc2bf"
    "598c0d6ef1eec4bf0f3106e842e3a3bf04000000000000001400000000000000"
    "4ac2c45054a6aa3eba7e2446b7b6ff3eba4f64257aacfa3e7c16de9e447cd03e"
    "55072b1e0706d03e8c7ee62e7366de3e889253e551cb323f418ed266140d373f"
    "e8ef06281583063f64e4b3ecfb3ee43ed084d40ac2ba9c3ec8b1e75158ff113f"
    "35e24800469d223f3e579cb81165c03ed808ccc01a9fdc3e22c80e5dc7fe9c3e"
    "e4f629d76198533fd020f1cf3523553f4e72d9460a35333fb50bc372f39e273f"
    "040000000000000065b6b47c038b103fd0bb42ec0cb6493f1e268e79575f2c3f"
    "b8afa484e3f4623f0c00000000000000f678d8684df7403fd139ba775cfb4b3f"
    "14b89a102bf7b93e03be19d4e1ec703fecfd2a1ece2f3c3f90fd64005ccf4a3f"
    "042ea620c8cba53e9a8a73b37dfa6a3fb6c6e2eb0fa8263f21357f0c3d46f53e"
    "e2cadd9a08b8633e46c18c0cd230513f0300000000000000ec255652b5264d3f"
    "e32d3803380f523fb1e4f86633ab103f";
constexpr char kPreKernelNetState[] =
    "0300000000000000050000000000000004000000000000000300000000000000"
    "01040000000000000005000000000000001400000000000000f292cb342dd7e1"
    "3f011f2b6e5520f03fa0cfde5fa839edbf8a3024e56003ec3f9aed389c6890e9"
    "bf08058513b8ebefbf7699f97aea9de73f3901e0fdf1a7ec3f1617cf1206e7e2"
    "bf72c75753040fe13f0225139fa032e23f225ae67c1ef7c83fc9b80b8852fed0"
    "bffcffd4d5758edabf044ef039f297e73f5f7d7b470210dbbf974b5a8640d2f1"
    "3fb7098aaa12c3f13fc68170eb3c21ea3f2ef6ed741937e0bf04000000000000"
    "004287b5239a859ebfd578b288e19f9ebf471fa9f40c339dbf3c028cf891a29e"
    "bf00030000000000000004000000000000000c00000000000000b0cf7c925033"
    "d03fdd5414efd9b2d6bf5cd0208f5f23eabfb2b32532bcafeabf89790ea38d57"
    "e5bfbe1e38a92cace2bf85a0f3e272dccbbf659571c9de1ed2bf02612ea10db3"
    "d53fd7c6920aebb7d23f95af130a74f99dbf94accee90a9debbf030000000000"
    "00004d91d09fe9a59e3fadb3f1b0afa69e3f94ffa7f8cd7f9e3f";

std::string FromHex(const char* hex) {
  std::string bytes;
  for (size_t i = 0; hex[i] != '\0' && hex[i + 1] != '\0'; i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex + i, 2), nullptr, 16)));
  }
  return bytes;
}

struct CheckpointScenario {
  Rng rng{7};
  Mlp net{{5, 4, 3}, {Activation::kRelu, Activation::kIdentity}, &rng};
  Adam adam{0.01, 0.9, 0.999, 1e-8, 1e-3};
  Matrix x{6, 5};
  Matrix t{6, 3};

  CheckpointScenario() {
    Rng data(8);
    x.FillUniform(&data, -1.0, 1.0);
    t.FillUniform(&data, -1.0, 1.0);
  }

  void Step(Mlp* model, Adam* optimizer) {
    Matrix grad;
    MseLoss(model->Forward(x), t, &grad);
    model->Backward(grad);
    optimizer->Step(model);
  }
};

TEST(AdamCheckpointTest, ReproducesPreKernelCheckpointBytes) {
  CheckpointScenario s;
  for (int i = 0; i < 3; ++i) s.Step(&s.net, &s.adam);
  io::Writer adam_bytes;
  s.adam.SaveState(&adam_bytes);
  EXPECT_EQ(adam_bytes.bytes(), FromHex(kPreKernelAdamState));
  io::Writer net_bytes;
  s.net.SaveState(&net_bytes);
  EXPECT_EQ(net_bytes.bytes(), FromHex(kPreKernelNetState));
}

TEST(AdamCheckpointTest, PreKernelCheckpointLoadsAndResumes) {
  CheckpointScenario s;
  for (int i = 0; i < 3; ++i) s.Step(&s.net, &s.adam);

  // Restore the pre-kernel checkpoint into a fresh optimizer and network.
  const std::string adam_state = FromHex(kPreKernelAdamState);
  const std::string net_state = FromHex(kPreKernelNetState);
  Adam restored(0.01, 0.9, 0.999, 1e-8, 1e-3);
  io::Reader adam_reader(adam_state);
  ASSERT_TRUE(restored.LoadState(&adam_reader).ok());
  EXPECT_EQ(adam_reader.remaining(), 0u);
  Rng scratch(99);
  Mlp restored_net({5, 4, 3}, {Activation::kRelu, Activation::kIdentity},
                   &scratch);
  io::Reader net_reader(net_state);
  ASSERT_TRUE(restored_net.LoadState(&net_reader).ok());
  io::Writer resaved;
  restored.SaveState(&resaved);
  EXPECT_EQ(resaved.bytes(), adam_state);

  // The resumed run continues exactly like the uninterrupted one.
  for (int i = 0; i < 2; ++i) {
    s.Step(&s.net, &s.adam);
    s.Step(&restored_net, &restored);
  }
  io::Writer a, b;
  s.net.SaveState(&a);
  restored_net.SaveState(&b);
  EXPECT_EQ(a.bytes(), b.bytes());
  io::Writer c, d;
  s.adam.SaveState(&c);
  restored.SaveState(&d);
  EXPECT_EQ(c.bytes(), d.bytes());
}

}  // namespace
}  // namespace crowdrl::nn
