#include "data/femnist_synth.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <tuple>

#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::data {
namespace {

// Seed-space keys so the independent random streams (glyphs, styles,
// samples) never collide.
constexpr std::uint64_t kGlyphStream = 0x67111;
constexpr std::uint64_t kStyleStream = 0x57111;
constexpr std::uint64_t kUserStream = 0x0711;

/// A class prototype: grayscale glyph in [0,1] on a unit square, stored at
/// the configured resolution.
struct Glyph {
  std::size_t size = 0;
  std::vector<float> pixels;

  float sample(double x, double y) const {
    // Bilinear lookup with zero outside the canvas.
    if (x < 0.0 || y < 0.0 || x > static_cast<double>(size - 1) ||
        y > static_cast<double>(size - 1)) {
      return 0.0f;
    }
    const auto x0 = static_cast<std::size_t>(x);
    const auto y0 = static_cast<std::size_t>(y);
    const std::size_t x1 = std::min(x0 + 1, size - 1);
    const std::size_t y1 = std::min(y0 + 1, size - 1);
    const auto fx = static_cast<float>(x - static_cast<double>(x0));
    const auto fy = static_cast<float>(y - static_cast<double>(y0));
    const float v00 = pixels[y0 * size + x0];
    const float v01 = pixels[y0 * size + x1];
    const float v10 = pixels[y1 * size + x0];
    const float v11 = pixels[y1 * size + x1];
    return (v00 * (1 - fx) + v01 * fx) * (1 - fy) +
           (v10 * (1 - fx) + v11 * fx) * fy;
  }
};

/// Rasterizes random strokes (line segments with soft edges) for one class.
Glyph make_glyph(std::size_t size, std::uint64_t seed, std::size_t class_id) {
  Glyph glyph;
  glyph.size = size;
  glyph.pixels.assign(size * size, 0.0f);

  Rng rng = Rng(seed).split(kGlyphStream).split(class_id + 1);
  const auto extent = static_cast<double>(size - 1);
  const double margin = 0.15 * extent;
  const int strokes = static_cast<int>(3 + rng.uniform_index(3));  // 3-5

  // Anchor points form a connected polyline, so glyphs look like pen paths
  // rather than scattered segments.
  double px = rng.uniform(margin, extent - margin);
  double py = rng.uniform(margin, extent - margin);
  const double thickness = rng.uniform(0.9, 1.4);

  for (int s = 0; s < strokes; ++s) {
    const double qx = rng.uniform(margin, extent - margin);
    const double qy = rng.uniform(margin, extent - margin);
    // Distance-to-segment rasterization with a soft falloff.
    for (std::size_t yy = 0; yy < size; ++yy) {
      for (std::size_t xx = 0; xx < size; ++xx) {
        const double cx = static_cast<double>(xx);
        const double cy = static_cast<double>(yy);
        const double dx = qx - px, dy = qy - py;
        const double len_sq = dx * dx + dy * dy;
        double t = len_sq > 0.0
                       ? ((cx - px) * dx + (cy - py) * dy) / len_sq
                       : 0.0;
        t = std::clamp(t, 0.0, 1.0);
        const double ex = px + t * dx - cx;
        const double ey = py + t * dy - cy;
        const double dist = std::sqrt(ex * ex + ey * ey);
        const double ink = std::exp(-(dist * dist) / (2.0 * thickness * thickness));
        float& pixel = glyph.pixels[yy * size + xx];
        pixel = std::max(pixel, static_cast<float>(ink));
      }
    }
    px = qx;
    py = qy;
  }
  return glyph;
}

/// Per-writer persistent rendering style.
struct WriterStyle {
  double rotation = 0.0;   // radians
  double scale = 1.0;
  double shear = 0.0;
  double shift_x = 0.0;
  double shift_y = 0.0;
  double gamma = 1.0;      // ink intensity curve
  double noise = 0.05;     // additive pixel noise stddev
};

WriterStyle make_style(std::uint64_t seed, std::size_t user_id) {
  Rng rng = Rng(seed).split(kStyleStream).split(user_id + 1);
  WriterStyle style;
  style.rotation = rng.uniform(-0.45, 0.45);
  style.scale = rng.uniform(0.8, 1.2);
  style.shear = rng.uniform(-0.25, 0.25);
  style.shift_x = rng.uniform(-1.5, 1.5);
  style.shift_y = rng.uniform(-1.5, 1.5);
  style.gamma = rng.uniform(0.6, 1.6);
  style.noise = rng.uniform(0.02, 0.12);
  return style;
}

/// Renders `glyph` through `style` with per-sample jitter drawn from `rng`
/// into `out` (size x size pixels).
void render(const Glyph& glyph, const WriterStyle& style, Rng& rng,
            std::span<float> out) {
  const std::size_t size = glyph.size;
  const double center = static_cast<double>(size - 1) / 2.0;

  // Jitter makes samples within one writer non-identical.
  const double rot = style.rotation + rng.uniform(-0.08, 0.08);
  const double scale = style.scale * rng.uniform(0.95, 1.05);
  const double sx = style.shift_x + rng.uniform(-0.5, 0.5);
  const double sy = style.shift_y + rng.uniform(-0.5, 0.5);

  const double cos_r = std::cos(rot), sin_r = std::sin(rot);
  for (std::size_t yy = 0; yy < size; ++yy) {
    for (std::size_t xx = 0; xx < size; ++xx) {
      // Inverse mapping: output pixel -> source coordinate.
      const double ox = (static_cast<double>(xx) - center - sx) / scale;
      const double oy = (static_cast<double>(yy) - center - sy) / scale;
      const double ux = ox - style.shear * oy;
      const double gx = cos_r * ux + sin_r * oy + center;
      const double gy = -sin_r * ux + cos_r * oy + center;
      double v = glyph.sample(gx, gy);
      v = std::pow(std::clamp(v, 0.0, 1.0), style.gamma);
      v += rng.normal(0.0, style.noise);
      out[yy * size + xx] = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
}

}  // namespace

nn::Tensor render_femnist_sample(const FemnistSynthConfig& config,
                                 std::size_t user_id, std::size_t class_id,
                                 std::uint64_t sample_index) {
  const Glyph glyph = make_glyph(config.image_size, config.seed, class_id);
  const WriterStyle style = make_style(config.seed, user_id);
  Rng rng = Rng(config.seed)
                .split(kUserStream)
                .split(user_id + 1)
                .split(sample_index + 1);
  nn::Tensor sample({1, config.image_size, config.image_size});
  render(glyph, style, rng, sample.values());
  return sample;
}

FederatedDataset make_femnist_synth(const FemnistSynthConfig& config) {
  assert(config.num_classes >= 2 && config.num_users >= 1);

  std::vector<Glyph> glyphs;
  glyphs.reserve(config.num_classes);
  for (std::size_t c = 0; c < config.num_classes; ++c) {
    glyphs.push_back(make_glyph(config.image_size, config.seed, c));
  }

  // Every draw except the pixel jitter is made here, in writer order, and
  // every buffer is allocated here too, so the dataset stays in the calling
  // thread's malloc arena. The pool then only renders pixels in place; each
  // sample has its own stream, so the pixels do not depend on the lane.
  struct Sample {
    const Glyph* glyph;
    const WriterStyle* style;
    Rng rng;
    std::span<float> out;
  };
  const std::size_t pixels = config.image_size * config.image_size;
  std::vector<WriterStyle> styles(config.num_users);
  std::vector<DataSplit> all(config.num_users);
  std::vector<Rng> split_rngs;
  split_rngs.reserve(config.num_users);
  std::vector<Sample> samples;
  for (std::size_t u = 0; u < config.num_users; ++u) {
    Rng user_rng = Rng(config.seed).split(kUserStream).split(u + 1);
    styles[u] = make_style(config.seed, u);

    // Unbalanced user sizes: log-normal around the configured mean.
    const double log_mean = std::log(config.mean_samples_per_user);
    const auto count_raw = static_cast<std::size_t>(std::llround(
        std::exp(user_rng.normal(log_mean, config.samples_log_sigma))));
    const std::size_t count =
        std::max<std::size_t>(config.min_samples_per_user, count_raw);

    // Non-IID label mix for this writer.
    const std::vector<double> label_mix =
        user_rng.dirichlet(config.dirichlet_alpha, config.num_classes);

    all[u].features =
        nn::Tensor({count, 1, config.image_size, config.image_size});
    all[u].labels.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t class_id = user_rng.weighted_choice(label_mix);
      all[u].labels[i] = static_cast<std::int32_t>(class_id);
      samples.push_back({&glyphs[class_id], &styles[u],
                         user_rng.split(0xe9a0 + i),
                         all[u].features.values().subspan(i * pixels, pixels)});
    }
    split_rngs.push_back(user_rng.split(0x59111));
  }

  // Two workers beside the calling thread: every worker thread gets its own
  // malloc arena, which threads started later inherit, so more workers cost
  // peak memory for little extra speed.
  ThreadPool pool(2);
  pool.parallel_for(samples.size(), [&](std::size_t s) {
    Sample& sample = samples[s];
    render(*sample.glyph, *sample.style, sample.rng, sample.out);
  });

  std::vector<UserData> users(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    users[u].user_id = "writer_" + std::to_string(u);
    std::tie(users[u].train, users[u].test) =
        train_test_split(all[u], config.train_fraction, split_rngs[u]);
    all[u] = DataSplit{};  // the split copied them; free before the next
  }

  return FederatedDataset("femnist-synth", "CNN", config.num_classes,
                          config.train_fraction, std::move(users));
}

}  // namespace tanglefl::data
