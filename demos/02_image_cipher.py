"""Encrypt and decrypt a grayscale image with the XOR keystream cipher.

The keystream is at least as long as the pixel count; pixel (j, k) is
XORed with keystream byte j*N + k.  Decryption is the same operation, and
a wrong key yields garbage, not an error.
"""

import numpy as np

from mipp import image_dec, image_enc, keygen, read_pgm, write_pgm

rng = np.random.default_rng(7)
image = np.zeros((48, 48), dtype=np.uint8)
image[8:40, 8:40] = 200                     # a bright square
image[16:32, 16:32] = rng.integers(0, 256, size=(16, 16))  # noisy center

sk = keygen(required_len=image.size, seed=b"owner-key")
encrypted = image_enc(sk, image)
decrypted = image_dec(sk, encrypted)

print(f"plaintext  mean {image.mean():6.1f}, std {image.std():6.1f}")
print(f"ciphertext mean {encrypted.mean():6.1f}, std {encrypted.std():6.1f} "
      "(flat histogram, structure gone)")
print(f"roundtrip bit-exact: {np.array_equal(decrypted, image)}")

wrong = keygen(image.size, seed=b"not-the-key")
print(f"wrong key recovers the image: {np.array_equal(image_dec(wrong, encrypted), image)}")

write_pgm("/tmp/demo_plain.pgm", image)
write_pgm("/tmp/demo_encrypted.pgm", encrypted, encrypted=True)
back, was_encrypted = read_pgm("/tmp/demo_encrypted.pgm")
print(f"PGM files written to /tmp; encrypted file flagged: {was_encrypted}")
