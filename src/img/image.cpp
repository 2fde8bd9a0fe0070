#include "img/image.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <vector>

namespace paintplace::img {

nn::Tensor Image::to_tensor() const {
  PP_CHECK(!empty());
  nn::Tensor t(nn::Shape{1, channels_, height_, width_});
  for (Index c = 0; c < channels_; ++c) {
    for (Index y = 0; y < height_; ++y) {
      for (Index x = 0; x < width_; ++x) t.at(0, c, y, x) = at(x, y, c);
    }
  }
  return t;
}

Image Image::from_tensor(const nn::Tensor& t) {
  PP_CHECK_MSG(t.rank() == 4 && t.dim(0) == 1, "from_tensor expects (1,C,H,W)");
  Image img(t.dim(3), t.dim(2), t.dim(1));
  for (Index c = 0; c < img.channels_; ++c) {
    for (Index y = 0; y < img.height_; ++y) {
      for (Index x = 0; x < img.width_; ++x) img.at(x, y, c) = t.at(0, c, y, x);
    }
  }
  return img;
}

void Image::clamp01() {
  for (float& v : data_) v = std::clamp(v, 0.0f, 1.0f);
}

void write_image(const Image& image, const std::string& path) {
  PP_CHECK(!image.empty());
  std::ofstream out(path, std::ios::binary);
  PP_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  const bool color = image.channels() == 3;
  out << (color ? "P6" : "P5") << "\n"
      << image.width() << " " << image.height() << "\n255\n";
  std::vector<unsigned char> row(static_cast<std::size_t>(image.width() * image.channels()));
  for (Index y = 0; y < image.height(); ++y) {
    for (Index x = 0; x < image.width(); ++x) {
      for (Index c = 0; c < image.channels(); ++c) {
        const float v = std::clamp(image.at(x, y, c), 0.0f, 1.0f);
        row[static_cast<std::size_t>(x * image.channels() + c)] =
            static_cast<unsigned char>(std::lround(v * 255.0f));
      }
    }
    out.write(reinterpret_cast<const char*>(row.data()), static_cast<std::streamsize>(row.size()));
  }
  PP_CHECK_MSG(out.good(), "write failed for " << path);
}

Image read_image(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PP_CHECK_MSG(in.is_open(), "cannot open " << path);
  std::string magic;
  in >> magic;
  PP_CHECK_MSG(magic == "P6" || magic == "P5", "unsupported image format " << magic);
  const Index channels = magic == "P6" ? 3 : 1;
  Index w = 0, h = 0, maxval = 0;
  in >> w >> h >> maxval;
  PP_CHECK_MSG(w > 0 && h > 0 && maxval == 255, "unsupported PNM header in " << path);
  in.get();  // single whitespace after header
  Image img(w, h, channels);
  std::vector<unsigned char> row(static_cast<std::size_t>(w * channels));
  for (Index y = 0; y < h; ++y) {
    in.read(reinterpret_cast<char*>(row.data()), static_cast<std::streamsize>(row.size()));
    PP_CHECK_MSG(in.good(), "truncated image " << path);
    for (Index x = 0; x < w; ++x) {
      for (Index c = 0; c < channels; ++c) {
        img.at(x, y, c) =
            static_cast<float>(row[static_cast<std::size_t>(x * channels + c)]) / 255.0f;
      }
    }
  }
  return img;
}

namespace {

/// Area-averaging (box) resample — required when minifying: plain bilinear
/// point-sampling skips source pixels entirely and erases sub-pixel
/// features such as 1-px connectivity lines.
/// Each output column's source span and x-weights are computed and checked
/// once per call, and each row's y-weights once per row, with the same double
/// expressions as a per-pixel computation. Sources are read through row
/// pointers: a per-pixel Image::at check costs more than the arithmetic.
Image resize_area(const Image& image, Index new_width, Index new_height) {
  Image out(new_width, new_height, image.channels());
  const Index channels = image.channels();
  const Index src_stride = image.width() * channels;
  const double sx = static_cast<double>(image.width()) / static_cast<double>(new_width);
  const double sy = static_cast<double>(image.height()) / static_cast<double>(new_height);

  // Length of [f0, f1) that falls inside source pixel i.
  auto overlap = [](double f0, double f1, Index i) {
    return std::min<double>(f1, static_cast<double>(i) + 1.0) -
           std::max<double>(f0, static_cast<double>(i));
  };
  struct Span {
    Index x0, x1;
    std::size_t weights;  // offset of wx[x0] in col_weights
  };
  // The weight buffers are reserved up front (a span covers at most
  // ceil(scale) + 1 source pixels): growing them one weight at a time
  // fragmented the heap enough to raise peak RSS by about one render.
  std::vector<Span> cols(static_cast<std::size_t>(new_width));
  std::vector<double> col_weights;
  col_weights.reserve(
      static_cast<std::size_t>(new_width * (static_cast<Index>(std::ceil(sx)) + 1)));
  for (Index x = 0; x < new_width; ++x) {
    const double fx0 = static_cast<double>(x) * sx;
    const double fx1 = fx0 + sx;
    const Index x0 = static_cast<Index>(fx0);
    const Index x1 = std::min<Index>(image.width(), static_cast<Index>(std::ceil(fx1)));
    PP_CHECK(x0 >= 0 && x1 <= image.width());
    cols[static_cast<std::size_t>(x)] = Span{x0, x1, col_weights.size()};
    for (Index xx = x0; xx < x1; ++xx) col_weights.push_back(overlap(fx0, fx1, xx));
  }

  std::vector<double> row_weights;
  row_weights.reserve(static_cast<std::size_t>(std::ceil(sy)) + 1);
  for (Index y = 0; y < new_height; ++y) {
    const double fy0 = static_cast<double>(y) * sy;
    const double fy1 = fy0 + sy;
    const Index y0 = static_cast<Index>(fy0);
    const Index y1 = std::min<Index>(image.height(), static_cast<Index>(std::ceil(fy1)));
    PP_CHECK(y0 >= 0 && y1 <= image.height());
    row_weights.clear();
    for (Index yy = y0; yy < y1; ++yy) row_weights.push_back(overlap(fy0, fy1, yy));
    float* const out_row = out.data() + y * new_width * channels;
    for (Index x = 0; x < new_width; ++x) {
      const Span& span = cols[static_cast<std::size_t>(x)];
      const double* const wxs = col_weights.data() + span.weights;
      for (Index c = 0; c < channels; ++c) {
        double acc = 0.0, weight = 0.0;
        for (Index yy = y0; yy < y1; ++yy) {
          const double wy = row_weights[static_cast<std::size_t>(yy - y0)];
          const float* const src = image.data() + yy * src_stride + c;
          for (Index xx = span.x0; xx < span.x1; ++xx) {
            const double wx = wxs[xx - span.x0];
            acc += static_cast<double>(src[xx * channels]) * wx * wy;
            weight += wx * wy;
          }
        }
        out_row[x * channels + c] = weight > 0.0 ? static_cast<float>(acc / weight) : 0.0f;
      }
    }
  }
  return out;
}

}  // namespace

Image resize_bilinear(const Image& image, Index new_width, Index new_height) {
  PP_CHECK(!image.empty() && new_width > 0 && new_height > 0);
  if (new_width < image.width() || new_height < image.height()) {
    return resize_area(image, new_width, new_height);
  }
  Image out(new_width, new_height, image.channels());
  const float sx = static_cast<float>(image.width()) / static_cast<float>(new_width);
  const float sy = static_cast<float>(image.height()) / static_cast<float>(new_height);
  for (Index y = 0; y < new_height; ++y) {
    const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
    const Index y0 = std::clamp<Index>(static_cast<Index>(std::floor(fy)), 0, image.height() - 1);
    const Index y1 = std::min<Index>(y0 + 1, image.height() - 1);
    const float wy = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (Index x = 0; x < new_width; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const Index x0 = std::clamp<Index>(static_cast<Index>(std::floor(fx)), 0, image.width() - 1);
      const Index x1 = std::min<Index>(x0 + 1, image.width() - 1);
      const float wx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      for (Index c = 0; c < image.channels(); ++c) {
        const float top = image.at(x0, y0, c) * (1.0f - wx) + image.at(x1, y0, c) * wx;
        const float bot = image.at(x0, y1, c) * (1.0f - wx) + image.at(x1, y1, c) * wx;
        out.at(x, y, c) = top * (1.0f - wy) + bot * wy;
      }
    }
  }
  return out;
}

Image to_grayscale(const Image& rgb) {
  PP_CHECK_MSG(rgb.channels() == 3, "to_grayscale expects RGB");
  Image gray(rgb.width(), rgb.height(), 1);
  for (Index y = 0; y < rgb.height(); ++y) {
    for (Index x = 0; x < rgb.width(); ++x) {
      gray.at(x, y, 0) = 0.2989f * rgb.at(x, y, 0) + 0.5870f * rgb.at(x, y, 1) +
                         0.1140f * rgb.at(x, y, 2);
    }
  }
  return gray;
}

Image abs_diff(const Image& a, const Image& b) {
  PP_CHECK_MSG(a.width() == b.width() && a.height() == b.height() && a.channels() == b.channels(),
               "abs_diff shape mismatch");
  Image out(a.width(), a.height(), a.channels());
  for (Index y = 0; y < a.height(); ++y) {
    for (Index x = 0; x < a.width(); ++x) {
      for (Index c = 0; c < a.channels(); ++c) {
        out.at(x, y, c) = std::fabs(a.at(x, y, c) - b.at(x, y, c));
      }
    }
  }
  return out;
}

}  // namespace paintplace::img
