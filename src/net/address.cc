#include "net/address.h"

#include <cstdio>

#include "common/error.h"

namespace cruz::net {

std::string MacAddress::ToString() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets[0],
                octets[1], octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

MacAddress MacAddress::FromId(std::uint32_t id) {
  // 0x02 prefix marks a locally administered unicast address.
  return MacAddress{{{0x02, 0x00,
                      static_cast<std::uint8_t>(id >> 24),
                      static_cast<std::uint8_t>(id >> 16),
                      static_cast<std::uint8_t>(id >> 8),
                      static_cast<std::uint8_t>(id)}}};
}

MacAddress MacAddress::Parse(const std::string& s) {
  MacAddress m;
  unsigned v[6];
  if (std::sscanf(s.c_str(), "%x:%x:%x:%x:%x:%x", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5]) != 6) {
    throw CodecError("malformed MAC address: " + s);
  }
  for (int i = 0; i < 6; ++i) {
    if (v[i] > 0xFF) throw CodecError("malformed MAC address: " + s);
    m.octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v[i]);
  }
  return m;
}

std::string Ipv4Address::ToString() const {
  // The bytes of "%u.%u.%u.%u", written digit by digit.
  char buf[15];
  char* p = buf;
  for (int shift = 24; shift >= 0; shift -= 8) {
    unsigned octet = (value >> shift) & 0xFF;
    if (octet >= 100) *p++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *p++ = static_cast<char>('0' + octet / 10 % 10);
    *p++ = static_cast<char>('0' + octet % 10);
    if (shift != 0) *p++ = '.';
  }
  return std::string(buf, p);
}

Ipv4Address Ipv4Address::Parse(const std::string& s) {
  unsigned a, b, c, d;
  char tail;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw CodecError("malformed IPv4 address: " + s);
  }
  return FromOctets(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                    static_cast<std::uint8_t>(c),
                    static_cast<std::uint8_t>(d));
}

std::string Endpoint::ToString() const {
  return ip.ToString() + ":" + std::to_string(port);
}

std::string FourTuple::ToString() const {
  return local.ToString() + "<->" + remote.ToString();
}

}  // namespace cruz::net
