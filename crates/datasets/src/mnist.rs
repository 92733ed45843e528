//! The MNIST-like synthetic dataset: 28×28 grayscale distorted digit
//! glyphs.

use crate::glyphs::{glyph, GLYPH_H, GLYPH_W};
use crate::raster::{add_noise, bilinear, Affine};
use crate::{Dataset, NUM_CLASSES};
use sc_core::rng::SmallRng;

/// Output image side length.
pub const SIDE: usize = 28;

/// Generates `count` MNIST-like samples with the given seed. Labels are
/// balanced round-robin over the ten digits; each sample applies a random
/// rotation (±15°), scale (0.75–1.15), translation (±2.5 px), per-image
/// contrast, stroke blur, and pixel noise to the reference glyph.
pub fn mnist_like(count: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d6e_6973_745f_6c6b);
    // The smooth source image depends only on the digit.
    let sources: Vec<Vec<f32>> = (0..NUM_CLASSES as u8).map(glyph_source).collect();
    let mut images = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let digit = (i % NUM_CLASSES) as u8;
        images.push(render_digit(&sources[digit as usize], &mut rng));
        labels.push(digit);
    }
    Dataset::new(images, labels, 1, SIDE, SIDE)
}

/// Up-sampling factor from a glyph bitmap to its source image.
const UP: usize = 2;
/// Source image width.
const SRC_W: usize = GLYPH_W * UP;
/// Source image height.
const SRC_H: usize = GLYPH_H * UP;

/// Up-samples a digit's glyph bitmap to a smooth source image (2× with
/// a soft edge), so that bilinear sampling gives anti-aliased strokes
/// like real handwriting scans.
fn glyph_source(digit: u8) -> Vec<f32> {
    let mut src = vec![0.0f32; SRC_W * SRC_H];
    for (gy, row) in glyph(digit).iter().enumerate() {
        for (gx, &cell) in row.iter().enumerate() {
            if cell == 1 {
                for dy in 0..UP {
                    for dx in 0..UP {
                        src[(gy * UP + dy) * SRC_W + gx * UP + dx] = 1.0;
                    }
                }
            }
        }
    }
    // One box-blur pass softens stroke edges.
    box_blur(&src, SRC_W, SRC_H)
}

/// Rasterizes one distorted digit from its source image.
fn render_digit(src: &[f32], rng: &mut SmallRng) -> Vec<f32> {
    let (sw, sh) = (SRC_W, SRC_H);
    let angle = rng.gen_range_f32(-0.26f32..0.26); // ±15°
    let scale = rng.gen_range_f32(0.75f32..1.15);
    let jx = rng.gen_range_f32(-2.5f32..2.5);
    let jy = rng.gen_range_f32(-2.5f32..2.5);
    let contrast = rng.gen_range_f32(0.75f32..1.0);

    // The glyph occupies sh source pixels and should span ~20 output
    // pixels at scale 1 (MNIST digits are ~20 px in the 28-px field).
    let base_scale = 20.0 / sh as f32 * scale;
    let t = Affine::rotate_scale(
        angle,
        base_scale,
        sw as f32 / 2.0,
        sh as f32 / 2.0,
        SIDE as f32 / 2.0 + jx,
        SIDE as f32 / 2.0 + jy,
    );

    let mut out = vec![0.0f32; SIDE * SIDE];
    for y in 0..SIDE {
        for x in 0..SIDE {
            let (sx, sy) = t.apply(x as f32, y as f32);
            out[y * SIDE + x] = bilinear(src, sw, sh, sx, sy) * contrast;
        }
    }
    add_noise(&mut out, 0.03, rng);
    out
}

fn box_blur(src: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut sum = 0.0;
            let mut cnt = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                    if nx >= 0 && ny >= 0 && nx < w as i64 && ny < h as i64 {
                        sum += src[ny as usize * w + nx as usize];
                        cnt += 1.0;
                    }
                }
            }
            out[y * w + x] = sum / cnt;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = mnist_like(20, 42);
        let b = mnist_like(20, 42);
        assert_eq!(a, b);
        let c = mnist_like(20, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn shape_and_range() {
        let d = mnist_like(10, 1);
        assert_eq!(d.shape(), (1, 28, 28));
        for (img, _) in d.iter() {
            assert!(img.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn labels_are_balanced() {
        let d = mnist_like(100, 5);
        let mut counts = [0usize; 10];
        for &l in d.labels() {
            counts[l as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn images_have_ink() {
        let d = mnist_like(30, 9);
        for (i, (img, label)) in d.iter().enumerate() {
            let ink: f32 = img.iter().sum();
            assert!(ink > 10.0, "sample {i} (digit {label}) nearly blank: {ink}");
        }
    }

    #[test]
    fn same_digit_varies_between_samples() {
        let d = mnist_like(40, 11);
        // Samples 0 and 10 are both digit 0 but distorted differently.
        assert_eq!(d.get(0).1, d.get(10).1);
        assert_ne!(d.get(0).0, d.get(10).0);
    }
}
